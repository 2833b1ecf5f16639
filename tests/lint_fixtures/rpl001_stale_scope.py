"""RPL001 stale scope: the configured ``Engine._score_round`` was renamed
to ``Engine._score`` and no longer matches any definition."""

from repro.xp import array_namespace


class Engine:
    def _precode(self, stack):
        xp = array_namespace(stack)
        return xp.sum(stack, axis=-1)

    def _score(self, stack):
        xp = array_namespace(stack)
        return xp.abs(stack) ** 2
