"""Task descriptor whose run() reaches the global rebind."""

from ..util.state_mutant import install


class MutantTask:
    def run(self, ctx):
        install(ctx)
