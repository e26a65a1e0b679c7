"""The four workloads: ladder, star, verify and cli.

Each workload builds its inputs from the seed with `gen` (not with
capstar), then hands out one pass of ops at a time.  An op is one call
sequence into capstar's public API (or one `capstar` subprocess); its
`check` compares the result with answers known without capstar and
returns None, or a short description of the mismatch.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from time import perf_counter

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Left out of the ladder until the kernel can reach them (seconds on the
# reference machine, see README.md): torus sd2 47, rp2 sd2 20, disk3 sd2 260.
LEFT_OUT = {("torus7", 2), ("rp2", 2), ("disk3", 2)}


def child_env() -> dict:
    """Environment for a child interpreter that imports capstar from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class Op:
    """`run()` makes the calls and returns the result; `check(result)`
    returns None or what is wrong.  `input` is the generated input, for
    replaying an op."""

    __slots__ = ("name", "run", "check", "input")

    def __init__(self, name, run, check, input=None):
        self.name, self.run, self.check, self.input = name, run, check, input


def unwrapped(fn):
    return getattr(fn, "__wrapped__", fn)


def _group_check(groups, expected) -> str | None:
    got = [(g.betti, tuple(g.torsion)) for g in groups]
    if got != expected:
        return f"homology {got} != {expected}"
    return None


def _group_str(betti, torsion) -> str:
    parts = [f"Z^{betti}"] if betti else []
    parts += [f"Z/{t}" for t in torsion]
    return " + ".join(parts) or "0"


def _vertex_star(x: gen.Complex, v) -> gen.Complex:
    return gen.Complex([s for s in x.maximal if v in s], x.order)


def _supported_cap_input(rng, x: gen.Complex, fundamental: dict, avoid=(), first=False):
    """A support {v} and a top cell sigma at v; the cochain that is 1 on
    sigma caps the fundamental class to +-(its coefficient on sigma).
    With `first`, v is sigma's first vertex, which keeps the cochain
    supported near v after a presubdivision too: its last-vertex
    pullback is nonzero on one small cell only, the one at sigma[0]."""
    if first:
        sigma = rng.choice(x.top())
        return sigma[0], sigma, fundamental[sigma]
    v = rng.choice([w for w in x.order if w not in avoid])
    sigma = rng.choice([t for t in x.top() if v in t])
    return v, sigma, fundamental[sigma]


def _class_check(cls, coefficient) -> str | None:
    if cls is None:
        return "class not transported"
    if tuple(cls.coords) not in ((coefficient,), (-coefficient,)):
        return f"class {cls.coords} != +-({coefficient},)"
    return None


class Workload:
    name = ""
    op_timeout_s = 60.0

    def __init__(self, capstar, seed: int, smoke: bool):
        self.cs = capstar
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        """Build the inputs that every pass uses; deterministic in the seed."""

    def make_pass(self, index: int) -> list:
        raise NotImplementedError

    def probe(self, op: Op, result, counters: dict) -> None:
        """Traced runs only: extra measurements on an op's result, made
        outside the op's timing."""

    # traced runs that start child processes record the children's spans
    child_span_s = 0.0

    def trace_children(self, counters: dict) -> None:
        """Traced runs: from now on, record spans inside child processes."""

    def after_trace(self, n_passes: int, counters: dict) -> None:
        """Traced runs: measurements to make once the traced passes are done."""

    def close(self) -> None:
        pass

    def _rng(self, *salt) -> random.Random:
        return random.Random(repr((self.name, self.seed) + salt))


def probe_smith(capstar, k, top: int, counters: dict) -> None:
    """Smith normal form of each differential d1..d3 of `k`, called
    directly: time, shape, nonzeros, rank and coefficient growth."""
    snf_fn = unwrapped(capstar.intlinalg.smith_normal_form)
    for n in range(1, min(top, 3) + 1):
        a = k.d(n)
        t0 = perf_counter()
        snf = snf_fn(a)
        counters[f"intlinalg.smith_normal_form.d{n}_s"] += perf_counter() - t0
        counters[f"intlinalg.d{n}.rows"] += a.shape[0]
        counters[f"intlinalg.d{n}.cols"] += a.shape[1]
        counters[f"intlinalg.d{n}.nnz"] += sum(1 for v in a.flat if v)
        counters[f"intlinalg.d{n}.rank"] += snf.rank
        bits = max((abs(int(v)).bit_length() for m in (snf.U, snf.V, snf.D) for v in m.flat),
                   default=0)
        counters["intlinalg.max_coeff_bits"] = max(counters["intlinalg.max_coeff_bits"], bits)


# -- ladder -----------------------------------------------------------------


class Ladder(Workload):
    """The `capstar homology` path in-process on relabelled fixtures
    under k barycentric subdivisions."""

    name = "ladder"

    def setup(self):
        top_k = 0 if self.smoke else 2
        self.rungs = []
        for name, maximal in gen.SURFACES.items():
            for k in range(min(top_k, 1) + 1):
                self.rungs.append((name, k, maximal, None))
        for name, (maximal, inner) in gen.PAIRS.items():
            for k in range(top_k + 1):
                if (name, k) not in LEFT_OUT:
                    self.rungs.append((name, k, maximal, inner))
        self.expected_f = {}
        labels = gen.Labels(self._rng("f-vectors"))
        for name, k, maximal, inner in self.rungs:
            x = gen.Complex(maximal, gen.default_order(maximal))
            for _ in range(k):
                x, _ = gen.subdivide(x, labels)
            self.expected_f[name, k] = x.f_vector()
        self.labels = gen.Labels(self._rng("labels"))

    def make_pass(self, index):
        ops = []
        for name, k, maximal, inner in self.rungs:
            x, boundary = gen.relabel(maximal, self.labels, inner)
            text = json.dumps({"complex": x.json(name),
                               "boundary": boundary and [list(s) for s in boundary]})
            ops.append(Op(f"{name}.sd{k}", self._homology_op(text, k, inner is not None),
                          self._checker(name, k), text))
        return ops

    def _homology_op(self, text, k, is_pair):
        cs = self.cs

        def run():
            data = json.loads(text)
            x = cs.io.parse_complex(data["complex"])
            y = x.subcomplex_closure(data["boundary"]) if is_pair else None
            for _ in range(k):
                sd = cs.complexes.barycentric_subdivide(x)
                if is_pair:
                    y = cs.complexes.induced_subdivision(sd, y)
                x = sd.complex
            if is_pair:
                chain_cx = cs.bridge.relative_chain_complex(x, y)[0]
            else:
                chain_cx = cs.bridge.chain_complex_of(x)
            groups = [cs.chains.homology(chain_cx, n) for n in range(x.dimension + 1)]
            coords = [[g.coords_of(r) for r in g.cycle_basis] for g in groups]
            return x, chain_cx, groups, coords

        return run

    def _checker(self, name, k):
        def check(result):
            x, _, groups, coords = result
            f = [len(x.simplices_of_dim(d)) for d in range(x.dimension + 1)]
            if f != self.expected_f[name, k]:
                return f"f-vector {f} != {self.expected_f[name, k]}"
            bad = _group_check(groups, gen.HOMOLOGY[name])
            if bad:
                return bad
            for g, cs in zip(groups, coords):
                units = [tuple(int(i == j) for j in range(g.dim)) for i in range(g.dim)]
                if [tuple(c) for c in cs] != units:
                    return f"coords_of(rep) in H_{g.degree} is {cs}, not the unit vectors"
            return None

        return check

    def probe(self, op, result, counters):
        x, chain_cx, _, _ = result
        probe_smith(self.cs, chain_cx, x.dimension, counters)


# -- star -------------------------------------------------------------------


class Star(Workload):
    """Products and supported caps on large complexes, where stars are
    small and no large Smith normal form runs."""

    name = "star"
    op_timeout_s = 30.0

    def setup(self):
        rng = self._rng("setup")
        labels = gen.Labels(rng)
        torus_k, klein_k, cyl_k = (1, 0, 1) if self.smoke else (3, 2, 2)

        t0, _ = gen.relabel(gen.SURFACES["torus7"], labels)
        self.torus0 = t0
        self.torus0_fund = gen.orient(t0)
        t = t0
        for _ in range(torus_k):
            t, _ = gen.subdivide(t, labels)
        self.torus = t
        self.torus_fund = gen.orient(t)

        kb, _ = gen.relabel(gen.SURFACES["klein"], labels)
        for _ in range(klein_k):
            kb, _ = gen.subdivide(kb, labels)
        self.klein = kb
        self.klein_chain = gen.random_values(rng, kb.top(), density=0.5)

        amb, rim = gen.PAIRS["cylinder"]
        c, r = gen.relabel(amb, labels, rim)
        for _ in range(cyl_k):
            c, r = gen.subdivide(c, labels, r)
        self.cyl, self.rim = c, gen.Complex(r, c.order)
        self.cyl_fund = gen.orient(c)
        if any(s not in set(self.rim.levels[1]) for s in gen.boundary(self.cyl_fund)):
            raise ValueError("cylinder orientation has boundary off the rim")

        self.texts = {
            "torus": json.dumps(t.json("torus-sd")),
            "torus.fund": json.dumps(gen.valued_json(2, self.torus_fund)),
            "torus0": json.dumps(t0.json("torus7")),
            "torus0.fund": json.dumps(gen.valued_json(2, self.torus0_fund)),
            "klein": json.dumps(kb.json("klein-sd")),
            "klein.chain": json.dumps(gen.valued_json(2, self.klein_chain)),
            "cyl": json.dumps({"complex": c.json("cylinder-sd"),
                               "boundary": [list(s) for s in self.rim.maximal]}),
            "cyl.fund": json.dumps(gen.valued_json(2, self.cyl_fund)),
        }

    def make_pass(self, index):
        cs = self.cs
        rng = self._rng("pass", index)
        state = {}
        ops = []

        def load(tag, x_ref, chain_key):
            def run():
                data = json.loads(self.texts[tag])
                if "complex" in data:
                    x = cs.io.parse_complex(data["complex"])
                    state[tag + ".y"] = x.subcomplex_closure(data["boundary"])
                else:
                    x = cs.io.parse_complex(data)
                state[tag] = x
                state[tag + ".alpha"] = cs.io.parse_chain(json.loads(self.texts[chain_key]), x)
                return x

            def check(x):
                f = [len(x.simplices_of_dim(d)) for d in range(x.dimension + 1)]
                return None if f == x_ref.f_vector() else f"f-vector {f} != {x_ref.f_vector()}"

            return Op(f"load.{tag}", run, check)

        def products(tag, ref, alpha):
            u = gen.random_values(rng, ref.levels[1])
            v = gen.random_values(rng, ref.levels[1])
            w = gen.random_values(rng, ref.levels[1])
            texts = [json.dumps(gen.valued_json(1, c)) for c in (u, v, w)]

            def run_cup():
                x = state[tag]
                a, b = (cs.io.parse_cochain(json.loads(s), x) for s in texts[:2])
                return cs.products.cup(a, b).values

            def run_cap():
                x = state[tag]
                c = cs.io.parse_cochain(json.loads(texts[2]), x)
                return cs.products.cap(state[tag + ".alpha"], c).coefficients

            want_cup = gen.cup(ref, u, 1, v, 1)
            want_cap = gen.cap(alpha, w, 1)
            return [
                Op(f"cup.{tag}", run_cup,
                   lambda got: None if got == want_cup else "cup differs from front/back evaluation"),
                Op(f"cap.{tag}", run_cap,
                   lambda got: None if got == want_cap else "cap differs from front/back evaluation"),
            ]

        def supported(tag, ref, fund, op_name, presubdivide=0, pair=False):
            avoid = {w for s in self.rim.maximal for w in s} if pair else ()
            v, sigma, coefficient = _supported_cap_input(rng, ref, fund, avoid, presubdivide > 0)
            cochain = json.dumps(gen.valued_json(2, {sigma: 1}))

            def run():
                x = state[tag]
                z = x.subcomplex_closure([(v,)])
                u = cs.io.parse_cochain(json.loads(cochain), x)
                alpha = state[tag + ".alpha"]
                if pair:
                    model = cs.bm.OpenSpaceModel(ambient=x, boundary=state[tag + ".y"])
                    return cs.bm.bm_supported_cap(model, z, u, alpha).class_in_z
                return cs.products.supported_cap(
                    x, z, u, alpha, presubdivide=presubdivide).class_in_z

            return Op(op_name, run, lambda cls: _class_check(cls, coefficient))

        ops.append(load("torus", self.torus, "torus.fund"))
        ops += products("torus", self.torus, self.torus_fund)
        ops.append(supported("torus", self.torus, self.torus_fund, "supported_cap.torus"))
        ops.append(load("klein", self.klein, "klein.chain"))
        ops += products("klein", self.klein, self.klein_chain)
        ops.append(load("cyl", self.cyl, "cyl.fund"))
        ops.append(supported("cyl", self.cyl, self.cyl_fund, "bm_supported_cap.cyl", pair=True))
        ops.append(load("torus0", self.torus0, "torus0.fund"))
        ops.append(supported("torus0", self.torus0, self.torus0_fund,
                             "presubdivided_cap.torus0", presubdivide=1))
        return ops


# -- verify -----------------------------------------------------------------


class Verify(Workload):
    """`run_suite` on every built-in surface: thousands of small Smith
    normal forms, the same homology recomputed many times."""

    name = "verify"

    def setup(self):
        self.trials = 2 if self.smoke else 20
        names = ["circle", "sphere"] if self.smoke else list(gen.SURFACES)
        self.surfaces = {n: gen.SURFACES[n] for n in names}
        self.labels = gen.Labels(self._rng("labels"))
        self.rng = self._rng("seeds")

    def make_pass(self, index):
        cs = self.cs
        ops = []
        for name, maximal in self.surfaces.items():
            x, _ = gen.relabel(maximal, self.labels)
            text = json.dumps(x.json(name))
            suite_seed = self.rng.randrange(1 << 31)

            def run(text=text, suite_seed=suite_seed):
                cx = cs.io.parse_complex(json.loads(text))
                return cx, cs.verify.run_suite(cx, trials=self.trials, seed=suite_seed)

            def check(result):
                failed = [r.name for r in result[1] if not r.passed]
                if not result[1] or failed:
                    return f"verify FAIL: {failed}"
                return None

            ops.append(Op(f"run_suite.{name}", run, check, (text, suite_seed)))
        return ops

    def probe(self, op, result, counters):
        cx, results = result
        counters["verify.checks_failed"] += sum(1 for r in results if not r.passed)
        chain_cx = unwrapped(self.cs.bridge.chain_complex_of)(cx)
        probe_smith(self.cs, chain_cx, cx.dimension, counters)


# -- cli --------------------------------------------------------------------


CLI_LAYERS = ("validate", "homology", "homology_rel", "cup", "cap", "cap_rel",
              "cap_presubdivide", "subdivide", "verify")


class Cli(Workload):
    """One `capstar` subprocess per command: start-up, argparse, file
    reading and output formatting."""

    name = "cli"

    def __init__(self, *args):
        super().__init__(*args)
        self.work = os.path.join(HERE, "_work", str(os.getpid()))
        self.counters = None  # per-layer counters, while traced

    def setup(self):
        rng = self._rng("setup")
        labels = gen.Labels(rng)
        os.makedirs(self.work, exist_ok=True)
        files = {}

        def put(fname, payload):
            path = os.path.join(self.work, fname)
            with open(path, "w") as fh:
                json.dump(payload, fh)
            files[fname] = path
            return path

        # torus7 and its subdivisions sd1..sd3 (sd0..sd2 in smoke mode)
        tori = [gen.relabel(gen.SURFACES["torus7"], labels)[0]]
        for _ in range(2 if self.smoke else 3):
            tori.append(gen.subdivide(tori[-1], labels)[0])
        t0, t1, big = (tori[0], tori[0], tori[1]) if self.smoke else (tori[0], tori[1], tori[3])
        put("big.json", big.json("torus-sd"))
        self.big_f = big.f_vector()
        self.sub_f = tori[2].f_vector()

        kb, _ = gen.relabel(gen.SURFACES["klein"], labels)
        put("klein.json", kb.json("klein"))

        amb, rim = gen.PAIRS["cylinder"]
        c, r = gen.relabel(amb, labels, rim)
        c, r = gen.subdivide(c, labels, r)
        rim_cx = gen.Complex(r, c.order)
        put("cyl.json", c.json("cylinder"))
        put("rim.json", {"name": "rim", "simplices": [list(s) for s in rim_cx.maximal],
                         "vertex_order": list(c.order)})

        put("t1.json", t1.json("torus"))
        u = gen.random_values(rng, t1.levels[1])
        v = gen.random_values(rng, t1.levels[1])
        put("u.json", gen.valued_json(1, u))
        put("v.json", gen.valued_json(1, v))
        self.cup_want = gen.valued_json(2, gen.cup(t1, u, 1, v, 1))

        self.caps = {}
        rim_vertices = {w for s in rim_cx.maximal for w in s}
        for tag, x, avoid in (("t1", t1, ()), ("cyl", c, rim_vertices), ("t0", t0, ())):
            fund = gen.orient(x)
            vertex, sigma, coefficient = _supported_cap_input(rng, x, fund, avoid, tag == "t0")
            put(f"{tag}.fund.json", gen.valued_json(2, fund))
            put(f"{tag}.delta.json", gen.valued_json(2, {sigma: 1}))
            put(f"{tag}.z.json", {"name": "z", "simplices": [[vertex]]})
            self.caps[tag] = (coefficient, _vertex_star(x, vertex).f_vector())
        put("t0.json", t0.json("torus7"))
        put("rp2.json", gen.relabel(gen.SURFACES["rp2"], labels)[0].json("rp2"))
        self.files = files
        self.verify_seed = rng.randrange(1 << 31)

    def close(self):
        if not os.path.isdir(self.work):
            return
        for name in os.listdir(self.work):
            os.remove(os.path.join(self.work, name))
        os.rmdir(self.work)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass

    def trace_children(self, counters):
        self.counters = counters

    def after_trace(self, n_passes, counters):
        counters["cli.startup_s"] = sum(self.startup() for _ in range(n_passes))

    def _command(self, args):
        if self.counters is not None:
            out = os.path.join(self.work, "spans.json")
            return [sys.executable, os.path.join(HERE, "cli_shim.py"), out, *args], out
        return [sys.executable, "-m", "capstar", *args], None

    def _run_cli(self, layer, args):
        cmd, spans_out = self._command(args)
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, check=False)
        took = perf_counter() - t0
        if self.counters is not None:
            self.counters[f"cli.{layer}_s"] += took
            self.counters["cli.nonzero_exits"] += proc.returncode != 0
            if spans_out and os.path.exists(spans_out):
                with open(spans_out) as fh:
                    for name, secs in json.load(fh).items():
                        self.counters[name + "_s"] += secs
                        self.child_span_s += secs
                os.remove(spans_out)
        return proc

    def startup(self) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import capstar"], cwd=ROOT, env=child_env(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        return perf_counter() - t0

    def make_pass(self, index):
        f = self.files

        def op(layer, args, expect):
            def run():
                return self._run_cli(layer, args)

            def check(proc):
                if proc.returncode != 0:
                    return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
                return expect(proc.stdout.splitlines())

            return Op(f"cli.{layer}", run, check)

        def lines_equal(want):
            return lambda got: None if got == want else f"output {got[:4]} != {want[:4]}"

        def cup_json(lines):
            return None if json.loads("\n".join(lines)) == self.cup_want else "cup output differs"

        def cap_lines(tag, label):
            coefficient, star_f = self.caps[tag]
            star = "star: " + ", ".join(f"dim {d}: {n}" for d, n in enumerate(star_f))
            allowed = {f"class: {c}*g0 in {label} = Z^1" for c in (coefficient, -coefficient)}

            def check(lines):
                if not lines or lines[-1] not in allowed:
                    return f"class line {lines[-1:]} not in {sorted(allowed)}"
                if tag != "t0" and star not in lines:
                    return f"no line {star!r}"
                return None

            return check

        def subdivided(lines):
            data = json.loads("\n".join(lines))
            got = gen.Complex(data["simplices"], data["vertex_order"]).f_vector()
            return None if got == self.sub_f else f"f-vector {got} != {self.sub_f}"

        def all_pass(lines):
            bad = [s for s in lines if not s.startswith("PASS ")]
            return None if lines and not bad else f"verify lines {bad[:3]}"

        hom = gen.HOMOLOGY
        cap_args = ("cap", "--cochain", "{t}.delta.json", "--chain", "{t}.fund.json",
                    "--support", "{t}.z.json")

        def cap_cmd(tag, *extra):
            return [f[a.format(t=tag)] if "{t}" in a else a for a in cap_args[1:]] + list(extra)

        return [
            op("validate", ["validate", f["big.json"]],
               lines_equal([f"dim {d}: {n}" for d, n in enumerate(self.big_f)])),
            op("homology", ["homology", f["klein.json"]],
               lines_equal([f"H_{n} = {_group_str(*g)}" for n, g in enumerate(hom["klein"])])),
            op("homology_rel", ["homology", f["cyl.json"], "--rel", f["rim.json"], "--bm"],
               lines_equal([f"H^BM_{n} = {_group_str(*g)}"
                            for n, g in enumerate(hom["cylinder"])])),
            op("cup", ["cup", f["t1.json"], "--u", f["u.json"], "--v", f["v.json"]], cup_json),
            op("cap", ["cap", f["t1.json"], *cap_cmd("t1")], cap_lines("t1", "H_0(Z)")),
            op("cap_rel", ["cap", f["cyl.json"], *cap_cmd("cyl"), "--rel", f["rim.json"]],
               cap_lines("cyl", "H_0(Z,Z&Y)")),
            op("cap_presubdivide", ["cap", f["t0.json"], *cap_cmd("t0"), "--presubdivide", "1"],
               cap_lines("t0", "H_0(Z)")),
            op("subdivide", ["subdivide", f["t0.json"], "--times", "2"], subdivided),
            op("verify", ["verify", f["rp2.json"], "--trials", "5",
                          "--seed", str(self.verify_seed + index)], all_pass),
        ]


WORKLOADS = {w.name: w for w in (Ladder, Star, Verify, Cli)}
