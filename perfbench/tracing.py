"""In-memory spans around setlab's public functions, for the traced run.

The tracer wraps each function listed in TRACED from outside the package:
every reference to the function object in a loaded setlab module (and the
method on its class) is replaced by a wrapper that records one span. Spans
live in flat arrays while the run lasts and are written out once at the end,
with their self times (duration less the time covered by child spans).

A span counts toward its layer's totals only when no span of the same layer
(or of a layer listed as covering it) is already open, so a layer's time is
never counted twice when one of its functions calls another.
"""

import os
import sys
import time
from array import array

import numpy as np

from checks import REGISTRY_TOLERANCES


def _rows(arg_index):
    def count(args, kwargs, out):
        return int(np.atleast_2d(np.asarray(args[arg_index])).shape[0])

    return count


def _len_out(args, kwargs, out):
    return len(out)


def _one(args, kwargs, out):
    return 1


def _file_size(args, kwargs, out):
    return os.path.getsize(args[1])


# (module, attribute, layer, layers that already cover it, row counter)
TRACED = (
    ("setlab.powersum", "power_sum_encode", "powersum.encode", ("powersum.decode",), _one),
    ("setlab.powersum", "power_sum_encode_batch", "powersum.encode", ("powersum.decode",), _rows(0)),
    ("setlab.powersum", "varsize_encode", "powersum.encode", ("powersum.decode",), _one),
    ("setlab.powersum", "power_sum_decode", "powersum.decode", (), _one),
    ("setlab.powersum", "power_sum_decode_batch", "powersum.decode", (), _len_out),
    ("setlab.powersum", "varsize_decode", "powersum.decode", (), _one),
    ("setlab.powersum", "varsize_decode_batch", "powersum.decode", (), _len_out),
    ("setlab.powersum", "aberth_roots", "powersum.roots", (), _rows(0)),
    ("setlab.mlp", "Mlp.forward", "mlp.forward", (), None),
    ("setlab.mlp", "Mlp.forward_trace", "mlp.forward", (), None),
    ("setlab.mlp", "Mlp.backward", "mlp.backward", (), None),
    ("setlab.nnet", "train", "nnet.train", (), None),
    ("setlab.nnet", "deepsets_eval", "nnet.eval", (), None),
    ("setlab.approx.collision", "find_collision", "approx.find_collision", (), None),
    ("setlab.approx.collision", "gamma_batch", "approx.gamma", (), _rows(0)),
    ("setlab.approx.simplexmap", "nu_pair_batch", "approx.nu", (), _rows(0)),
    ("setlab.approx.contours", "emit_contour_grid", "approx.contours", (), None),
    ("setlab.approx.smoothmax", "lse_max", "approx.lse_max", (), None),
    ("setlab.pooling", "janossy_pool", "pooling.janossy", (), None),
    ("setlab.pooling", "sampled_pool", "pooling.sampled", (), None),
    ("setlab.sets", "f_star", "sets.f_star", (), None),
    ("setlab._jsonio", "dump_file", "jsonio.dump", (), _file_size),
    ("setlab._jsonio", "load_file", "jsonio.load", (), None),
    ("setlab.cli", "cmd_train", "cli.train", (), None),
    ("setlab.cli", "cmd_collide", "cli.collide", (), None),
    ("setlab.cli", "cmd_contours", "cli.contours", (), None),
)


class Tracer:
    def __init__(self):
        self.names = [f"{module.removeprefix('setlab.')}.{attr}" for module, attr, *_ in TRACED]
        self.layers = [layer for _, _, layer, _, _ in TRACED]
        self.times = array("d")  # start, end per span
        self.ints = array("q")  # parent, name, rows per span
        self.counted = array("b")
        self.stack = []
        self.open_layers = dict.fromkeys(self.layers, 0)

    def install(self):
        """Replace every traced function in the loaded setlab modules."""
        for index, (module, attr, layer, covered_by, counter) in enumerate(TRACED):
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(index, getattr(cls, meth), layer, covered_by, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original, layer, covered_by, counter)
            for name, mod in list(sys.modules.items()):
                if name == "setlab" or name.startswith("setlab."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, index, fn, layer, covered_by, counter):
        times, ints, counted, stack, open_layers = (
            self.times, self.ints, self.counted, self.stack, self.open_layers
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(counted)
            counted.append(not open_layers[layer] and not any(open_layers[c] for c in covered_by))
            ints.extend((stack[-1] if stack else -1, index, 0))
            times.extend((0.0, 0.0))
            stack.append(sid)
            open_layers[layer] += 1
            times[2 * sid] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                times[2 * sid + 1] = clock()
                open_layers[layer] -= 1
                stack.pop()
            if counter is not None:
                ints[3 * sid + 2] = counter(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    def arrays(self):
        times = np.frombuffer(self.times, dtype=float).reshape(-1, 2)
        ints = np.frombuffer(self.ints, dtype=np.int64).reshape(-1, 3)
        dur = times[:, 1] - times[:, 0]
        parent = ints[:, 0]
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return {
            "parent": parent,
            "name": ints[:, 1],
            "start_s": times[:, 0],
            "dur_s": dur,
            "self_s": dur - child,
            "rows": ints[:, 2],
            "counted": np.frombuffer(self.counted, dtype=np.int8).astype(bool),
        }

    def layer_totals(self):
        """Per layer: counted calls, inclusive seconds and rows."""
        a = self.arrays()
        totals = {l: {"calls": 0, "s": 0.0, "rows": 0, "varsize_s": 0.0} for l in set(self.layers)}
        for idx, name in enumerate(self.names):
            cnt = (a["name"] == idx) & a["counted"]
            t = totals[self.layers[idx]]
            t["calls"] += int(cnt.sum())
            t["s"] += float(a["dur_s"][cnt].sum())
            t["rows"] += int(a["rows"][cnt].sum())
            if "varsize_decode" in name:
                t["varsize_s"] += float(a["dur_s"][cnt].sum())
        return totals

    def write(self, path):
        """All spans as NumPy columns (np.load reads them back); span i's
        parent is the row index of the span that called it, or -1, and
        start_s counts from the first span."""
        a = self.arrays()
        a["start_s"] = a["start_s"] - a["start_s"][:1]
        columns = {k: v.astype(np.int32) if v.dtype == np.int64 else v for k, v in a.items()}
        np.savez_compressed(path, names=np.array(self.names), **columns)


def per_layer_metrics(totals, n, check_s, ops_per_s):
    """The per-layer metrics of BENCHMARK.json, each per round of the
    workload: totals come from Tracer.layer_totals, n is the round count.

    check_s maps a registry check name to its median wall time; it is empty
    outside the verify workload, whose checks then read 0.
    """

    def ms(layer):
        return totals[layer]["s"] * 1e3 / n

    def per_round(layer, key):
        return totals[layer][key] / n

    roots_rows = totals["powersum.roots"]["rows"]
    out = {
        "powersum.encode_ms": ms("powersum.encode"),
        "powersum.decode_ms": ms("powersum.decode"),
        "powersum.roots_ms": ms("powersum.roots"),
        "powersum.repair_ms": ms("powersum.decode") - ms("powersum.roots"),
        "powersum.varsize_decode_ms": totals["powersum.decode"]["varsize_s"] * 1e3 / n,
        "powersum.roots_rows": per_round("powersum.roots", "rows"),
        "powersum.decoded_per_root_row": (
            totals["powersum.decode"]["rows"] / roots_rows if roots_rows else 0.0
        ),
        "mlp.forward_ms": ms("mlp.forward"),
        "mlp.forward_calls": per_round("mlp.forward", "calls"),
        "mlp.backward_ms": ms("mlp.backward"),
        "nnet.train_ms": ms("nnet.train"),
        "nnet.eval_calls": per_round("nnet.eval", "calls"),
        "approx.find_collision_ms": ms("approx.find_collision"),
        "approx.gamma_rows": per_round("approx.gamma", "rows"),
        "approx.gamma_ms": ms("approx.gamma"),
        "approx.nu_rows": per_round("approx.nu", "rows"),
        "approx.nu_ms": ms("approx.nu"),
        "approx.contours_ms": ms("approx.contours"),
        "approx.lse_max_ms": ms("approx.lse_max"),
        "pooling.janossy_ms": ms("pooling.janossy"),
        "pooling.janossy_calls": per_round("pooling.janossy", "calls"),
        "pooling.sampled_ms": ms("pooling.sampled"),
        "pooling.sampled_calls": per_round("pooling.sampled", "calls"),
        "sets.f_star_ms": ms("sets.f_star"),
        "sets.f_star_calls": per_round("sets.f_star", "calls"),
        "jsonio.dump_ms": ms("jsonio.dump"),
        "jsonio.load_ms": ms("jsonio.load"),
        "jsonio.bytes_written": per_round("jsonio.dump", "rows"),
        "cli.train_ms": ms("cli.train"),
        "cli.collide_ms": ms("cli.collide"),
        "cli.contours_ms": ms("cli.contours"),
        "trace.ops_per_s": ops_per_s,
    }
    for name in REGISTRY_TOLERANCES:
        out[f"verify.{name}_s"] = check_s.get(name, 0.0)
    return out
