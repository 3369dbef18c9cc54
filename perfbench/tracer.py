"""Outside-in tracer for the hyperalg modules.

The tracer wraps the public functions and the public methods of the public
classes of each traced module, from outside the program.  A function is
replaced in *every* namespace that binds it: the defining module, each module
that imported it with `from .x import name` (also under an alias, such as
`homs.cmember`), the package namespace, and the values of module-level dicts
such as `axioms.PREDICATES`.  Patching only the defining module would
silently miss those calls.

Each call is a span.  A span's self time is its duration minus the time
covered by wrapped children.  Spans are kept in memory, aggregated per
function (a sweep makes millions of them), and written out once, when the
traced run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

# `tolerance` is not traced: its helpers are charged to the wrapped caller
TRACED_MODULES = (
    "ctrop", "realhf", "exotic", "csets", "rsets", "qsets",
    "structures", "axioms", "homs", "finite", "deq", "cli",
)
ALL_MODULES = ("tolerance",) + TRACED_MODULES

# value-set normalizers -> (module, parts_of helper); None for `rset`, whose
# input is a list of (lo, hi) pairs
NORMALIZERS = {
    "csets.normalize_parts": ("csets", "parts_of"),
    "rsets.rset": None,
    "qsets.qnormalize": ("qsets", "qparts_of"),
    "exotic.mnormalize": ("exotic", "mparts_of"),
    "exotic.pnormalize": ("exotic", "pparts_of"),
}

NEG_INF = float("-inf")
# binary additions whose branch mix is recorded -> the size the addition
# compares its operands by (modulus, norm, exponent, ...); a zero operand has
# size -inf, which differs from every other size
BRANCH_FNS = {
    "ct_add": lambda x: x.modulus if x.modulus else NEG_INF,
    "rt_add": lambda x: abs(x) if x else NEG_INF,
    "phase_add": lambda x: x.modulus if x.modulus else NEG_INF,
    "quat_add": lambda x: x.norm if x.norm else NEG_INF,
    "trop_add": lambda x: x,
    "mono_add": lambda x: NEG_INF if x.zero else float(x.exponent),
    "padic_add": lambda x: NEG_INF if x.is_zero else float(x.e),
}
# the tropical addition has no cancellation branch
BRANCHES = {fn: ("dominant", "tie") if fn == "trop_add" else ("dominant", "tie", "cancel")
            for fn in BRANCH_FNS}
_CANCELS = ("CDisk", "QBall", "MCone", "PCone", "CUnion")  # CUnion: phase circle ∪ {0}


def classify(fn_name: str, a, b, out, eps: float) -> str:
    """Branch of a binary addition: `cancel` when the result is a disk, ball,
    cone, the phase circle with 0, or (for `rt_add`) the interval [-m, m];
    otherwise `dominant` when the operands' sizes differ by more than `eps`
    or an operand is zero, and `tie` when they are equal within `eps`."""
    kind = type(out).__name__
    if kind in _CANCELS:
        return "cancel"
    if fn_name == "rt_add" and out.intervals[0][0] != out.intervals[0][1]:
        return "cancel"
    size = BRANCH_FNS[fn_name]
    sa, sb = size(a), size(b)
    if sa == sb:
        return "dominant" if sa == NEG_INF else "tie"
    return "tie" if abs(sa - sb) <= eps else "dominant"


def is_sum_fn(name: str) -> bool:
    """Set-extended sums: `*_add_sets`, `*_mul_sets` and the n-ary closed forms."""
    return name.endswith(("_add_sets", "_mul_sets")) or name in ("ct_sum_n", "tri_sum_n")


class Tracer:
    """`install()`, run the traced work, `uninstall()`, then read the metrics."""

    def __init__(self, package: str = "hyperalg"):
        self.mods = {m: importlib.import_module(f"{package}.{m}") for m in ALL_MODULES}
        self.pkg = importlib.import_module(package)
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive s, self s]
        self.noop = {key: [0, 0] for key in NORMALIZERS}  # key -> [calls, no-op calls]
        self.branches = {fn: Counter() for fn in BRANCH_FNS}
        self.module_of: dict[str, str] = {}
        self._stack: list = []
        self._patches: list = []

    # ------------------------------------------------------------------
    # span bookkeeping

    def _close(self, frame, dt: float, hook_s: float = 0.0, count: int = 1) -> None:
        st = self.stats[frame[0]]
        st[0] += count
        st[1] += dt
        st[2] += dt - frame[1]
        stack = self._stack
        stack.pop()
        if stack:
            parent = stack[-1]
            parent[1] += dt + hook_s  # hook time is charged to no layer

    def _wrap(self, fn, key: str, hook=None):
        self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        if inspect.isgeneratorfunction(fn):
            # one call per generator; each resume is a span of that call
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                count = 1
                while True:
                    frame = [key, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(frame, clock() - t0, count=count)
                        count = 0
                    yield item

            return functools.wraps(fn)(gen_wrapper)

        if hook is None:
            def wrapper(*args, **kwargs):
                frame = [key, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame, clock() - t0)

            return functools.wraps(fn)(wrapper)

        def hooked(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                close(frame, clock() - t0)
                raise
            t1 = clock()
            hook(args, kwargs, out)
            close(frame, t1 - t0, clock() - t1)
            return out

        return functools.wraps(fn)(hooked)

    # ------------------------------------------------------------------
    # hooks (they use only the original, unwrapped helpers)

    def _noop_hook(self, key: str):
        counts = self.noop[key]
        spec = NORMALIZERS[key]
        if spec is None:
            def hook(args, kwargs, out):
                pairs = args[0] if args else kwargs["pairs"]
                counts[0] += 1
                counts[1] += tuple(tuple(p) for p in pairs) == out.intervals
            return hook
        parts_of = getattr(self.mods[spec[0]], spec[1])

        def hook(args, kwargs, out):
            parts = args[0] if args else kwargs["parts"]
            flat = [c for p in parts for c in parts_of(p)]
            counts[0] += 1
            counts[1] += flat == parts_of(out)
        return hook

    def _branch_hook(self, fn):
        counter = self.branches[fn.__name__]
        default_tol = inspect.signature(fn).parameters["tol"].default

        def hook(args, kwargs, out):
            tol = args[2] if len(args) > 2 else kwargs.get("tol", default_tol)
            counter[classify(fn.__name__, args[0], args[1], out, tol.eps)] += 1
        return hook

    # ------------------------------------------------------------------
    # install / uninstall

    def _set(self, owner, name: str, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner.__setitem__, name, owner[name]))
            owner[name] = new
        else:
            self._patches.append((functools.partial(setattr, owner), name, vars(owner)[name]))
            setattr(owner, name, new)

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for mname in TRACED_MODULES:
            mod = self.mods[mname]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                key = f"{mname}.{name}"
                hook = None
                if key in NORMALIZERS:
                    hook = self._noop_hook(key)
                elif name in BRANCH_FNS:
                    hook = self._branch_hook(obj)
                wrappers[id(obj)] = (obj, self._wrap(obj, key, hook))
                self.module_of[key] = mname
        # rebind every namespace that holds one of the originals
        for mod in [self.pkg, *self.mods.values()]:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
                elif type(obj) is dict:
                    for k, v in list(obj.items()):
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._set(obj, k, hit[1])
        for mname in TRACED_MODULES:
            mod = self.mods[mname]
            for cname, cls in list(vars(mod).items()):
                if cname.startswith("_") or not inspect.isclass(cls):
                    continue
                if cls.__module__ != mod.__name__ or issubclass(cls, BaseException):
                    continue
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    key = f"{mname}.{cname}.{attr}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(raw.__func__, key))
                    elif inspect.isfunction(raw):
                        new = self._wrap(raw, key)
                    else:  # properties and constants stay as they are
                        continue
                    self._set(cls, attr, new)
                    self.module_of[key] = mname

    def uninstall(self) -> None:
        while self._patches:
            setter, name, old = self._patches.pop()
            setter(name, old)

    # ------------------------------------------------------------------
    # results

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0])[0]

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics: name -> (value, unit).  Self time is given as a
        share of the traced wall time `wall_s`; the spans file has seconds."""
        def share(keys) -> float:
            return sum(self.stats.get(k, [0, 0.0, 0.0])[2] for k in keys) / wall_s

        out = {}
        for mname in TRACED_MODULES:
            keys = [k for k, m in self.module_of.items() if m == mname]
            out[f"{mname}.calls"] = (sum(self.stats[k][0] for k in keys), "count")
            out[f"{mname}.self_share"] = (share(keys), "fraction")
        sums = [k for k in self.module_of if is_sum_fn(k.rsplit(".", 1)[1])]
        out["sums.calls"] = (sum(self.stats[k][0] for k in sums), "count")
        out["sums.self_share"] = (share(sums), "fraction")
        for key, (calls, noops) in self.noop.items():
            out[f"{key}.calls"] = (calls, "count")
            out[f"{key}.noop_frac"] = (noops / calls if calls else 0.0, "fraction")
        preds = [f"axioms.{fn.__name__}" for fn in self.mods["axioms"].PREDICATES.values()]
        out["axioms.stratified_tuples.calls"] = (self.calls("axioms.stratified_tuples"), "count")
        out["axioms.stratified_tuples.self_share"] = (share(["axioms.stratified_tuples"]), "fraction")
        out["axioms.predicates.calls"] = (sum(self.stats[k][0] for k in preds), "count")
        out["axioms.predicates.self_share"] = (share(preds), "fraction")
        for fn, counter in self.branches.items():
            for branch in BRANCHES[fn]:
                out[f"{fn}.{branch}"] = (counter[branch], "count")
        return out

    def dump(self, path, meta: dict) -> None:
        """Write the aggregated spans as JSON."""
        data = {
            "meta": meta,
            "functions": {
                k: {"calls": c, "incl_s": i, "self_s": s}
                for k, (c, i, s) in sorted(self.stats.items())
                if c
            },
            "noop": {k: {"calls": c, "noop": n} for k, (c, n) in self.noop.items()},
            "branches": {k: dict(v) for k, v in self.branches.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
