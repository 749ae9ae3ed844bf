"""A ceiling on Python frames per emitted packet, so per-packet call chains
do not grow back into the tick loop.

The engine's cost in pure Python is call overhead before it is anything
else: the tick loop was rewritten to enter one frame per *phase and active
deciding link* instead of several per packet (``_process_link`` per wire
link, ``_deliver -> _reply``, ``CbrSource._packet``, ``DropTailPolicy.admit``,
``LinkMonitor._in_window -> inc``, ``randrange -> _randbelow``), and
``FLocPolicy.admit`` decides a DATA packet in one frame plus the issuer's
``authenticate`` instead of a twenty-call chain.  Frames entered are
deterministic for a seed, which wall time is not, so this is the tier-1
guard; the benchmark measures what the frames cost.
"""

import collections
import os
import sys

import pytest

import repro
from repro import FLocConfig, FLocPolicy, build_tree_scenario
from repro.net.policy import DropTailPolicy

TICKS = 2000

#: Only frames of this package count: what ``random.uniform`` or
#: ``hmac.new`` enter underneath differs between the interpreters of the
#: CI matrix, and is not this repository's to budget.
PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: frames per emitted packet measured when the ceiling was set.  Before
#: FLoc's admission was flattened into one frame the second figure was
#: 20.93 (15.2 of it inside ``repro.core``, now 3.4); before the tick loop
#: was, the two runs took 9.20 and 25.02 with library frames counted.
MEASURED = {"droptail": 4.03, "floc": 9.08}


def frames_per_packet(policy):
    scenario = build_tree_scenario(
        scale_factor=0.03, attack_kind="cbr", seed=3
    )
    scenario.attach_policy(policy)
    engine = scenario.engine
    frames = collections.Counter()

    def count(frame, event, arg):
        # Python frames only: C calls are "c_call"
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
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
