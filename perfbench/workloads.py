"""How each workload calls the public API of ``tschirn``.

A workload turns a corpus item into call arguments (``prepare``, not timed),
makes one call into the library (``op``, timed), turns the return value into
plain data (``result``, not timed) and checks it (``check``, not timed).
Importing this module imports ``tschirn`` (and ``tschirn.cli`` for the
`classify` workload), so the caller must put the package on ``sys.path``
first.
"""

from __future__ import annotations

import contextlib
import io
import json

import tschirn

import check
import corpus


class Workload:
    def positive(self, item):
        """Whether the expected answer is "equal" (None: no such split)."""
        return None

    def weight(self, item):
        """How much one op counts towards ops_per_s."""
        return 1


class Decide(Workload):
    name = "decide"

    def prepare(self, item):
        return tschirn.CubicTriple(*item["a"]), tschirn.CubicTriple(*item["b"])

    def op(self, args):
        return tschirn.decide_same_splitting(*args)

    def result(self, item, args, out):
        equal, witness = out
        return equal, None if witness is None else witness.as_tuple()

    def check(self, item, args, res):
        return check.decide(item, res)

    def positive(self, item):
        return item["equal"]


class Classify(Workload):
    name = "classify"

    def __init__(self):
        import tschirn.cli

        self.cli = tschirn.cli

    def prepare(self, item):
        def text(t):
            return ",".join(str(c) for c in t)

        return ["classify", "--a", text(item["a"]), "--b", text(item["b"]), "--json"]

    def op(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf

    def result(self, item, argv, out):
        code, buf = out
        return code, json.loads(buf.getvalue()) if code == 0 else None

    def check(self, item, argv, res):
        code, doc = res
        return f"exit_code_{code}" if code else check.classify(item, doc)

    def positive(self, item):
        return item["relation"] == "Equal"


class Scan(Workload):
    name = "scan"

    def prepare(self, item):
        return item["m_range"], item["n_max"]

    def op(self, args):
        m_range, n_max = args
        return tschirn.scan_equal_splitting(m_range, n_max, jobs=1)

    def result(self, item, args, out):
        return out.pairs, out.classes

    def check(self, item, args, res):
        return check.scan(item, res)

    def weight(self, item):
        # ops_per_s counts the (m, n) pairs tested
        return item["pairs_tested"]


class ResolventFF(Workload):
    name = "resolvent-ff"

    def __init__(self):
        self.fields = {}

    def _field(self, item):
        key = (item["p"], item["k"])
        if key not in self.fields:
            p, k = key
            self.fields[key] = (tschirn.PrimeField(p) if k == 1
                                else tschirn.ExtField(p, k, item["modulus"]))
        return self.fields[key]

    def prepare(self, item):
        F = self._field(item)
        conv = (lambda v: F(v[0])) if item["k"] == 1 else F

        def triple(e):
            return tschirn.CubicTriple(*(conv(v) for v in e))

        xs = tuple(conv(v) for v in item["xs"])
        ys = tuple(conv(v) for v in item["ys"])
        return triple(item["s"]), triple(item["t"]), xs, ys

    def op(self, args):
        s, t = args[0], args[1]
        return (tschirn.resolvent_F0(s, t), tschirn.resolvent_F1(s, t),
                tschirn.resolvent_F2(s, t))

    def result(self, item, args, out):
        return out

    def check(self, item, args, res):
        rt = tschirn.RootTuple(xs=args[2], ys=args[3])
        oracle = tuple(tschirn.oracle_resolvent(rt, i) for i in range(3))
        return check.resolvent_ff(res, oracle)


WORKLOADS = {w.name: w for w in (Decide, Classify, Scan, ResolventFF)}

WARMUP_SEED = -1


def warmup_items(name):
    """Items run before timing starts: the first items of a fixed seed, or a
    small scan for `scan`."""
    if name == "scan":
        return [{"m_range": (-1, -1), "n_max": 300}]
    n = 2 if name == "decide" else 1
    return [corpus.ITEMS[name](WARMUP_SEED, i) for i in range(n)]


def warm_up(workload):
    for item in warmup_items(workload.name):
        workload.op(workload.prepare(item))
