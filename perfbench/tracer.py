"""Outside-in tracer for the nuseg package.

`Tracer.install()` replaces every public function of every timed nuseg
module (plus a few public methods) with a timing wrapper, and rebinds each
name in every nuseg namespace that imported it: modules import ops by name
(`from .tensor import conv2d`), so patching only `nuseg.tensor` would miss
most call sites. `uninstall()` puts the originals back. Nothing under `src/`
is modified.

What is recorded, in memory, until the caller reads it:

- a span per wrapped call; a function's self time is its span minus the
  union of its child spans (`measure.self_time`);
- per op kind: calls, forward ms, output bytes, MACs, and backward ms, taken
  by wrapping the backward closure each op leaves on its output node;
- per named module (`en<i>`, `de<i>`, `ica<i>`, `proj<i>`, `head<j>`,
  `fuse`): the same figures, attributed to the innermost module whose span
  was open when the op ran. Names are the first component of
  `ModelParams.named()` keys, found by parameter-object identity.
"""

import functools
import inspect
import os
import re
from time import perf_counter

import nuseg
from nuseg import cli, data, ica, io, layers, metrics, model, prng, rsu, tensor, train

import measure

__all__ = ["Tracer", "OP_KINDS", "TIMED_MODULES"]

TIMED_MODULES = (prng, tensor, layers, rsu, ica, model, train, metrics, data, io)
# every namespace whose imported names are rebound; cli is rebound but not timed
_NAMESPACES = TIMED_MODULES + (cli, nuseg)
_METHODS = {
    prng: {"Prng.normal": "normal"},
    layers: {"Conv.apply": "Conv.apply", "ConvBnRelu.apply": "ConvBnRelu.apply",
             "BnParams.apply": "BnParams.apply"},
}
# functions that build a graph node; every other tensor op kind is "other"
_OP_FUNCS = ("conv2d", "max_pool2d", "upsample_bilinear", "batch_norm", "activation",
             "global_avg_pool", "channel_pool", "mul_broadcast", "concat_channels",
             "linear", "bce_loss", "add", "scale", "sum_all")
OP_KINDS = ("conv2d", "batch_norm", "activation", "max_pool2d", "upsample_bilinear",
            "concat_channels", "mul_broadcast", "bce_loss", "other")
# module-name prefix -> layer that owns the module, for per-layer metric names
_MODULE_LAYER = {"en": "rsu", "de": "rsu", "ica": "ica", "proj": "layers",
                 "head": "layers", "fuse": "layers"}
_MODULE_ORDER = ("en", "proj", "ica", "de", "head", "fuse")


class _Op:
    __slots__ = ("calls", "fwd", "bwd", "out_bytes", "macs")

    def __init__(self):
        self.calls = 0
        self.fwd = self.bwd = 0.0
        self.out_bytes = self.macs = 0


class _Fn:
    __slots__ = ("calls", "total", "own", "extra")

    def __init__(self):
        self.calls = 0
        self.total = self.own = 0.0
        self.extra = {}


class _Module:
    __slots__ = ("calls", "fwd", "own", "bwd", "ops", "macs")

    def __init__(self):
        self.calls = self.ops = self.macs = 0
        self.fwd = self.own = self.bwd = 0.0


def _post_hooks():
    """Per-function extra counters: name -> (counter, fn(args, out) -> amount)."""
    flops = model.count_flops  # the original, captured before install

    def forward_macs(args, _out):
        params, x = args[0], args[1]
        n, _, h, w = x.data.shape
        return n * flops(params.cfg, h, w)

    return {
        "io.save_entries": ("bytes", lambda a, o: os.path.getsize(a[0])),
        "io.load_entries": ("bytes", lambda a, o: os.path.getsize(a[0])),
        "data.load_pgm": ("bytes", lambda a, o: os.path.getsize(a[0])),
        "prng.normal": ("values", lambda a, o: int(o.size)),
        "metrics.connected_components": ("pixels", lambda a, o: int(getattr(a[0], "size", 0))),
        "model.forward": ("macs", forward_macs),
    }


def _op_macs(name: str, args, out) -> int:
    if name == "conv2d":
        n, cout, ho, wo = out.data.shape
        _, cin, kh, kw = args[1].data.shape
        return n * cout * ho * wo * cin * kh * kw
    if name == "linear":
        cout, cin = args[1].data.shape
        return out.data.shape[0] * cout * cin
    return 0


class Tracer:
    """Wraps nuseg's public functions; read the figures with `layer_metrics`
    and `module_table` after `uninstall`."""

    def __init__(self):
        self._saved = []  # (owner, attribute, original)
        self._names = {}  # id(parameter tensor) -> module name
        self._models = []  # registered models, kept alive so ids stay unique
        self._stack = []  # children intervals of each open span
        self._module_stack = []
        self._hooks = _post_hooks()
        self.reset()

    # ------------------------------------------------------------------ state

    def reset(self) -> None:
        self.ops = {k: _Op() for k in OP_KINDS}
        self.fns = {}
        self.modules = {}
        self.closures_built = 0
        self.closures_run = 0
        self.macs = 0  # conv2d + linear, the quantity model.count_flops counts

    def register_model(self, params) -> None:
        if any(p is params for p in self._models):
            return
        self._models.append(params)
        for name, t in params.named().items():
            self._names[id(t)] = name.split(".", 1)[0]

    def _module(self, name: str) -> _Module:
        m = self.modules.get(name)
        if m is None:
            m = self.modules[name] = _Module()
        return m

    # ----------------------------------------------------------- installation

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for mod in TIMED_MODULES:
                short = mod.__name__.rsplit(".", 1)[1]
                for name, fn in vars(mod).copy().items():
                    if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                            and not name.startswith("_")):
                        self._rebind(fn, self._wrap(f"{short}.{name}", name, fn))
                for path, label in _METHODS.get(mod, {}).items():
                    cls_name, meth = path.split(".")
                    cls = getattr(mod, cls_name)
                    fn = vars(cls)[meth]
                    self._saved.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{short}.{label}", meth, fn))
        except BaseException:
            self.uninstall()
            raise

    def _rebind(self, original, wrapper) -> None:
        for ns in _NAMESPACES:
            for attr, value in vars(ns).copy().items():
                if value is original:
                    self._saved.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- wrapping

    def _namer(self, key: str):
        """Returns args -> module name for the calls that delimit a module."""
        names = self._names
        if key == "rsu.rsu_forward":
            return lambda a, kw: names.get(id((a[0] if a else kw["params"]).conv_in.w))
        if key == "ica.ica_forward":
            return lambda a, kw: names.get(id((a[2] if len(a) > 2 else kw["params"]).w1))
        if key == "layers.Conv.apply":
            return lambda a, kw: names.get(id(a[0].w))
        if key == "model.forward_features":
            def register(a, kw):
                self.register_model(a[0] if a else kw["params"])
            return register
        return None

    def _wrap(self, key: str, name: str, fn):
        op_kind = None
        if key.startswith("tensor.") and name in _OP_FUNCS:
            op_kind = name if name in OP_KINDS else "other"
        namer = self._namer(key)
        hook = self._hooks.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mod_name = namer(args, kwargs) if namer is not None else None
            if mod_name is not None:
                tracer._module_stack.append(mod_name)
            children = []
            tracer._stack.append(children)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1].append((start, end))
                if mod_name is not None:
                    tracer._module_stack.pop()
            own = measure.self_time(start, end, children) if children else end - start
            if op_kind is not None:
                tracer._account_op(op_kind, name, args, out, end - start)
            else:
                st = tracer.fns.get(key)
                if st is None:
                    st = tracer.fns[key] = _Fn()
                st.calls += 1
                st.total += end - start
                st.own += own
                if hook is not None:
                    counter, amount = hook
                    st.extra[counter] = st.extra.get(counter, 0) + amount(args, out)
            if mod_name is not None:
                m = tracer._module(mod_name)
                m.calls += 1
                m.fwd += end - start
                m.own += own
            return out

        return wrapper

    def _account_op(self, kind: str, name: str, args, out, dur: float) -> None:
        st = self.ops[kind]
        st.calls += 1
        st.fwd += dur
        st.out_bytes += out.data.nbytes
        macs = _op_macs(name, args, out)
        st.macs += macs
        self.macs += macs
        mod = self._module(self._module_stack[-1]) if self._module_stack else None
        if mod is not None:
            mod.ops += 1
            mod.macs += macs
        if out._backward is not None:
            self.closures_built += 1
            out._backward = self._timed_closure(out._backward, st, mod)

    def _timed_closure(self, fn, st: _Op, mod):
        def timed(g):
            t0 = perf_counter()
            fn(g)
            dt = perf_counter() - t0
            st.bwd += dt
            self.closures_run += 1
            if mod is not None:
                mod.bwd += dt
        return timed

    # ---------------------------------------------------------------- reports

    def layer_metrics(self, always=(), per: float = 1, all_ops: bool = True) -> dict:
        """name -> (value, unit) for the op kinds, every called function and
        every named module, plus the names in `always` (0 when not run).

        Amounts are divided by `per`, the units of work the window covered;
        ratios and rates are not. `all_ops=False` drops op kinds never run.
        """
        out = {}
        for kind, st in self.ops.items():
            if not (all_ops or st.calls):
                continue
            base = f"tensor.{kind}"
            out[f"{base}.calls"] = (st.calls / per, "count")
            out[f"{base}.fwd_ms"] = (1e3 * st.fwd / per, "ms")
            out[f"{base}.bwd_ms"] = (1e3 * st.bwd / per, "ms")
            out[f"{base}.ms"] = (1e3 * (st.fwd + st.bwd) / per, "ms")
            out[f"{base}.out_bytes"] = (st.out_bytes / per, "B")
        conv = self.ops["conv2d"]
        if all_ops or conv.calls:
            out["tensor.conv2d.macs"] = (conv.macs / per, "count")
            out["tensor.conv2d.gmacs_per_s"] = (
                conv.macs / conv.fwd / 1e9 if conv.fwd else 0.0, "GMAC/s")
        if all_ops or self.closures_built:
            out["tensor.closures_built"] = (self.closures_built / per, "count")
            out["tensor.closures_run"] = (self.closures_run / per, "count")
            ratio = self.closures_run / self.closures_built if self.closures_built else 0.0
            out["tensor.closure_use_ratio"] = (ratio, "ratio")
        units = {"bytes": "B", "values": "count", "pixels": "count", "macs": "count"}
        for key, st in self.fns.items():
            out[f"{key}.calls"] = (st.calls / per, "count")
            out[f"{key}.ms"] = (1e3 * st.total / per, "ms")
            out[f"{key}.self_ms"] = (1e3 * st.own / per, "ms")
            for counter, amount in st.extra.items():
                out[f"{key}.{counter}"] = (amount / per, units[counter])
        for name, m in self.modules.items():
            out[f"{_MODULE_LAYER[_prefix(name)]}.{name}.self_ms"] = (1e3 * m.own / per, "ms")
        for name, unit in always:
            out.setdefault(name, (0.0, unit))
        return out

    def module_table(self, per: float = 1) -> list:
        """One dict per named module, in network order, divided by `per`."""
        rows = []
        for name in sorted(self.modules, key=_module_sort_key):
            m = self.modules[name]
            rows.append({"module": name, "calls": m.calls / per, "fwd_ms": 1e3 * m.fwd / per,
                         "self_ms": 1e3 * m.own / per, "bwd_ms": 1e3 * m.bwd / per,
                         "ops": m.ops / per, "macs": m.macs / per})
        return rows


def _prefix(name: str) -> str:
    return re.match(r"[a-z]+", name).group(0)


def _module_sort_key(name: str):
    m = re.fullmatch(r"([a-z]+)(\d*)", name)
    return (_MODULE_ORDER.index(m.group(1)), int(m.group(2) or 0))
