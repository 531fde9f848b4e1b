"""Out-of-package span tracer for the campaign benchmark.

The tracer wraps public functions of the daggerlab layers from outside
the package. Each wrapped call is one span with a name, a start, an end
and a parent (the innermost wrapped call still open). Spans are not
stored one by one: they are folded into per-(check, function) aggregates
as they close, because a single lemma campaign makes millions of them.
The check is the request id: the benchmark advances it from the CLI's
streamed per-check lines (`next_check`).

Targets are named as "module:qualname" strings and resolved when the
tracer is installed, so that a refactor that renames, deletes or turns a
function into a constant reports that target as absent instead of
crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable

Hook = Callable[[dict, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One traced name: a metric prefix and the callables it covers.

    A spec is "module:qualname"; a qualname ending in ".*" covers every
    function defined in that class. `hook` sees (counters, args, kwargs,
    result) after each successful call and adds counts to `counters`.
    `columns` names the aggregates reported for this target ("calls",
    "incl_s", "self_s") and `counters` the hook counts reported.
    """

    name: str
    specs: tuple[str, ...]
    hook: Hook | None = None
    columns: tuple[str, ...] = ()
    counters: tuple[str, ...] = ()


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.check = 0
        self.check_ids: list[str] = []
        self._stats: dict[tuple[int, str], list] = {}
        self._covered: dict[int, float] = {}
        self._edges: dict[tuple[str, str], int] = {}
        self._counters: dict[str, dict] = {}
        self._depth: dict[str, int] = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []  # (owner, attr, had its own value, that value)
        self.absent: list[str] = []

    # -- request ids -------------------------------------------------------

    def next_check(self, check_id: str) -> None:
        """Close the current check under `check_id`; later spans belong
        to the next one."""
        self.check_ids.append(check_id)
        self.check += 1

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            found = False
            for spec in target.specs:
                found |= self._install_spec(target, spec)
            if not found:
                self.absent.append(target.name)

    def uninstall(self) -> None:
        """Put every original object back, newest patch first."""
        for owner, attr, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, value)
        self._patches.append((owner, attr, had_own, original))

    def _install_spec(self, target: Target, spec: str) -> bool:
        modname, _, qualname = spec.partition(":")
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            return False
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if isinstance(owner, types.ModuleType):
            fn = getattr(owner, attr, None)
            if not callable(fn) or isinstance(fn, type):
                return False
            wrapper = self._wrap(target, fn)
            self._patch(owner, attr, wrapper)
            self._rebind(fn, wrapper)
            return True
        if not isinstance(owner, type):
            return False
        names = [n for n, v in vars(owner).items() if isinstance(v, types.FunctionType)] \
            if attr == "*" else [attr]
        found = False
        for name in names:
            raw = vars(owner).get(name)
            if isinstance(raw, property) and raw.fget is not None:
                new = property(self._wrap(target, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, types.FunctionType):
                new = self._wrap(target, raw)
            else:
                continue
            self._patch(owner, name, new)
            found = True
        return found

    def _rebind(self, fn, wrapper) -> None:
        """`from .matcat import compose` copies the reference, so every
        daggerlab namespace holding `fn` gets the wrapper too."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "daggerlab" or modname.startswith("daggerlab.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, name, wrapper)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, target: Target, fn):
        name, hook = target.name, target.hook
        clock, stack, depth = time.perf_counter, self._stack, self._depth
        counters = self._counters.setdefault(name, {})
        record = self._record

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                record(name, end - start, frame[1])
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _record(self, name: str, duration: float, child_time: float) -> None:
        key = (self.check, name)
        stat = self._stats.get(key)
        if stat is None:
            stat = self._stats[key] = [0, 0.0, 0.0]
        stat[0] += 1
        if self._depth[name] == 0:  # a recursive inner call is already inside the outer one
            stat[1] += duration
        stat[2] += duration - child_time
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            edge = (parent[0], name)
            self._edges[edge] = self._edges.get(edge, 0) + 1
        else:
            self._covered[self.check] = self._covered.get(self.check, 0.0) + duration

    # -- results -------------------------------------------------------------

    def _check_label(self, index: int) -> str:
        return self.check_ids[index] if index < len(self.check_ids) else "(after last check)"

    def result(self) -> dict:
        """JSON-ready aggregates: per name `totals` and per check `by_check`
        as [calls, incl_s, self_s], top-level span seconds per check
        (`covered`), "parent>child" call counts (`edges`), hook
        `counters` and the `absent` names."""
        totals = {target.name: [0, 0.0, 0.0] for target in self.targets}
        by_check: dict[str, dict] = {}
        for (check, name), stat in sorted(self._stats.items()):
            totals[name] = [a + b for a, b in zip(totals[name], stat)]
            by_check.setdefault(self._check_label(check), {})[name] = list(stat)
        covered: dict[str, float] = {}
        for check, seconds in sorted(self._covered.items()):
            label = self._check_label(check)
            covered[label] = covered.get(label, 0.0) + seconds
        return {
            "totals": totals,
            "by_check": by_check,
            "covered": covered,
            "edges": {f"{p}>{c}": n for (p, c), n in sorted(self._edges.items())},
            "counters": {n: dict(c) for n, c in self._counters.items() if c},
            "absent": list(self.absent),
        }
