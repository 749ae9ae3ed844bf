"""A ceiling on Python frames per emitted packet, so per-packet call chains
do not grow back into the tick loop.

The engine's cost in pure Python is call overhead before it is anything
else: the tick loop was rewritten to enter one frame per *phase and active
deciding link* instead of several per packet (``_process_link`` per wire
link, ``_deliver -> _reply``, ``CbrSource._packet``, ``DropTailPolicy.admit``,
``LinkMonitor._in_window -> inc``, ``randrange -> _randbelow``).  Frames
entered are deterministic for a seed, which wall time is not, so this is
the tier-1 guard; the benchmark measures what the frames cost.
"""

import collections
import sys

import pytest

from repro import FLocConfig, FLocPolicy, build_tree_scenario
from repro.net.policy import DropTailPolicy

TICKS = 2000

#: frames per emitted packet measured when the ceiling was set (CPython
#: 3.11; frames entered in the standard library count too).  Before the
#: rewrite the same two runs took 9.20 and 25.02.
MEASURED = {"droptail": 4.00, "floc": 20.99}


def frames_per_packet(policy):
    scenario = build_tree_scenario(
        scale_factor=0.03, attack_kind="cbr", seed=3
    )
    scenario.attach_policy(policy)
    engine = scenario.engine
    frames = collections.Counter()

    def count(frame, event, arg):
        if event == "call":  # Python frames only: C calls are "c_call"
            frames[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        engine.run(TICKS)
    finally:
        sys.setprofile(previous)
    emitted = engine.packets_emitted
    top = "\n".join(
        f"  {n / emitted:6.2f}  {code.co_filename.rsplit('/', 2)[-1]}:"
        f"{code.co_firstlineno} {code.co_name}"
        for code, n in frames.most_common(5)
    )
    return sum(frames.values()) / emitted, top


@pytest.mark.parametrize("name", sorted(MEASURED))
def test_frames_per_emitted_packet_stay_under_the_ceiling(name):
    policy = DropTailPolicy() if name == "droptail" else FLocPolicy(FLocConfig())
    per_packet, top = frames_per_packet(policy)
    ceiling = 1.10 * MEASURED[name]
    assert per_packet <= ceiling, (
        f"{per_packet:.2f} Python frames per emitted packet under {name}, "
        f"ceiling {ceiling:.2f}; the five functions entered most, per "
        f"emitted packet:\n{top}"
    )
