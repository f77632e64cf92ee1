"""One workload process.  Started by run.py, never by hand.

Roles:
  cell   -- build_cold: import schurkit, build schur_unitary(d, n) cold,
            check it, exit;
  loop   -- import schurkit, prebuild the workload's transforms, run one
            warm-up round (together: set-up), then rounds of the workload's
            job list.

Every message to run.py is one stdout line starting with '@@ ' and holding a
JSON object; anything else on stdout is ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from collections import namedtuple

# numpy is imported before any span opens, so its import is charged to no layer
import numpy as np

from oracles import (
    collective_trace,
    content,
    distributions_match,
    haar_unitary,
    hook_dim,
    lambda_moments_ok,
    random_isometry,
    random_state,
    schur_matrix_failures,
    sector_masses,
    transposition_sum,
)
from tracing import Tracer, layer_summary, rebind, span_problems

_OUT = sys.stdout


def emit(**msg):
    _OUT.write("@@ " + json.dumps(msg) + "\n")
    _OUT.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def flip_one_sign(a) -> bool:
    """Negate the largest entry of magnitude strictly between 0 and 1, in
    place; False when there is none.  Unit entries are skipped: flipping a
    lone unit entry is a change of phase, which leaves a valid result."""
    mag = np.abs(a)
    mag[mag > 0.999] = 0.0
    idx = np.unravel_index(int(mag.argmax()), a.shape)
    if mag[idx] < 1e-6:
        return False
    a[idx] = -a[idx]
    return True


# -- workloads ------------------------------------------------------------


def duality_cells(quick: bool) -> list:
    """Every (d, n) with d, n >= 2 and d^n <= 1024: the criterion-02 grid."""
    limit = 64 if quick else 1024
    return [(d, n) for d in range(2, 33) for n in range(2, 11) if d**n <= limit]


APPS_CELLS = [(4, 5), (2, 12), (5, 5), (4, 4), (3, 4), (3, 3), (2, 8), (2, 5), (2, 4), (2, 3), (2, 2)]
APPS_QUICK_CELLS = [(3, 4), (4, 4), (3, 3), (3, 2), (2, 6), (2, 5), (2, 4), (2, 3), (2, 2)]


Op = namedtuple("Op", "kind run check")


class DualitySweep:
    """verify_block_diagonal once per cell per round, seeded Haar U and
    random s; leakage < 1e-10, residual < 1e-9 and the trace identity."""

    tail_percentile = 95.0

    def __init__(self, sk, quick):
        self.sk = sk
        self.cells = duality_cells(quick)
        self.min_rounds = 1 if quick else 2
        for d, n in self.cells:
            sk.schur_unitary(d, n)

    def corrupt_target(self):
        return "characters", "young_orthogonal"

    def round(self, rng):
        sk = self.sk
        ops = []
        for d, n in self.cells:
            u = haar_unitary(rng, d)
            s = tuple(int(x) + 1 for x in rng.permutation(n))

            def check(rep, u=u, s=s):
                total = sum(np.trace(b.matrix) for b in rep.blocks.values())
                return (
                    rep.leakage < 1e-10
                    and rep.worst_factor_residual < 1e-9
                    and abs(total - collective_trace(u, s)) < 1e-9
                )

            ops.append(Op("verify", lambda u=u, s=s, d=d, n=n: sk.verify_block_diagonal(u, s, d, n), check))
        return ops


class Apps:
    """A fixed mix of read-path requests on prebuilt transforms; the seed
    draws the states, isometries, spectra and CLI seeds."""

    tail_percentile = 90.0

    def __init__(self, sk, quick):
        self.sk = sk
        self.quick = quick
        self.min_rounds = 1 if quick else 4
        for cell in APPS_QUICK_CELLS if quick else APPS_CELLS:
            sk.schur_unitary(*cell)
        self.cli_digests = {}
        self.stdout_bytes = 0

    def corrupt_target(self):
        return "schur_transform", "dfs_encode"

    def round(self, rng):
        sk, q = self.sk, self.quick
        ops = []

        measure_cells = [(3, 4), (2, 6)] if q else [(4, 5), (2, 12)]
        for d, n in measure_cells * 2:
            x = random_state(rng, d**n)
            ops.append(
                Op(
                    f"measure_schur d{d}n{n}",
                    lambda x=x, d=d, n=n: sk.measure_schur(x, d, n),
                    lambda dist, x=x, d=d, n=n: lambda_moments_ok(dist, x, d, n),
                )
            )

        # three (2,12) round trips, ops 10-12 of 22 by latency, put the
        # median op inside their band rather than on a step between kinds
        dfs_cases = (
            [((2, 1, 1), 2, 3, 4), ((4, 2), 1, 2, 6)]
            if q
            else [((2, 2, 1), 2, 4, 5)] + [((7, 5), qi, 2, 12) for qi in (1, 2, 3)]
        )
        for lam, qi, d, n in dfs_cases:
            p = random_state(rng, hook_dim(lam))

            def run(lam=lam, qi=qi, d=d, n=n, p=p):
                x = sk.dfs_encode(lam, qi, p, d, n)
                return x, sk.dfs_decode(lam, qi, x, d, n)

            def check(res, lam=lam, d=d, n=n, p=p):
                x, back = res
                tx = transposition_sum(x, d, n)
                return (
                    np.abs(back - p).max() < 1e-10
                    and abs(np.linalg.norm(x) - 1.0) < 1e-10
                    and np.abs(tx - content(lam) * x).max() < 1e-9 * n * n
                )

            ops.append(Op(f"dfs d{d}n{n}", run, check))

        for d, n in [(2, 3), (2, 4)] if q else [(3, 4), (2, 5)]:
            x = random_state(rng, d**n)

            def check(res, x=x, d=d, n=n):
                marginal = sk.measure_schur(x, d, n)
                fid = res.ancilla_fidelity.values()
                return (
                    distributions_match(res.distribution, marginal, 1e-10)
                    and lambda_moments_ok(res.distribution, x, d, n)
                    and all(abs(f - 1.0) < 1e-9 for f in fid)
                )

            ops.append(Op(f"gpe d{d}n{n}", lambda x=x, d=d, n=n: sk.gpe_measure(x, d, n), check))

        for n in (2, 3) if q else (3, 4):
            v = random_isometry(rng, 4, 2)
            ops.append(
                Op(
                    f"channel n{n}",
                    lambda v=v, n=n: sk.channel_normal_form(v, n),
                    lambda nf: nf.reconstruction_residual < 1e-9 and nf.isometry_residual < 1e-9,
                )
            )

        for d, n in [(2, 3), (3, 2)] if q else [(2, 4), (3, 3)]:
            psi = random_state(rng, d * d)
            m = psi.reshape(d, d)
            spec = np.linalg.eigvalsh(m @ m.conj().T)[::-1]

            def check(rep, spec=spec, n=n):
                return (
                    rep.off_diagonal_mass < 1e-12
                    and rep.distortion_free_residual < 1e-8
                    and distributions_match(rep.outcome_weights, sector_masses(spec, n), 1e-8)
                )

            ops.append(Op(f"concentrate d{d}n{n}", lambda psi=psi, n=n: sk.concentrate(psi, n), check))

        n30 = 12 if q else 30
        r = tuple(sorted(rng.dirichlet([2.0, 2.0, 2.0]), reverse=True))
        exact = sector_masses(r, n30)
        trials = 2000 if q else 20000
        seed = int(rng.integers(1 << 31))

        def check_spectrum(rep, r=r, exact=exact, n=n30, trials=trials):
            if not distributions_match(rep.distribution, exact, 1e-10):
                return False
            for delta, rate in rep.failure_rates.items():
                bad = sum(
                    w
                    for lam, w in exact.items()
                    if sum(abs(a / n - b) for a, b in zip(list(lam) + [0] * 3, r)) > delta
                )
                if abs(rate - bad) > 6 * math.sqrt(max(0.0, bad * (1 - bad)) / trials) + 1e-3:
                    return False
            return sum(rep.counts.values()) == trials

        ops.append(
            Op(
                f"spectrum_estimate d3n{n30}",
                lambda r=r, seed=seed: sk.spectrum_estimate(r, n30, trials, seed=seed),
                check_spectrum,
            )
        )
        qubits_per_symbol = 1.2

        def check_compress(rec, exact=exact):
            kept = sum(exact[tuple(x for x in lam if x)] for lam in rec.kept)
            return (
                abs(rec.kept_mass - kept) < 1e-10
                and abs(rec.kept_mass + rec.error_mass - 1.0) < 1e-10
                and rec.dimension_ok
            )

        ops.append(Op(f"compress_rate d3n{n30}", lambda r=r: sk.compress_rate(r, n30, qubits_per_symbol), check_compress))

        cli_seed = str(int(rng.integers(1000)))
        schur_json = ["schur", "--d", "2", "--n", "5" if q else "8", "--format", "json"]
        # three schur JSON calls per round put the p90 tail inside their band
        for argv in (
            ["verify", "--d", "2", "--n", "4", "--trials", "5", "--seed", cli_seed],
            ["channel", "--n", "2"],
            ["qft", "--n", "3" if q else "4", "--format", "json"],
            schur_json,
            schur_json,
            schur_json,
        ):
            ops.append(Op("cli " + argv[0], lambda argv=argv: self._cli(argv), lambda res, argv=argv: self._cli_ok(argv, res)))
        return ops

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sys.modules["schurkit.cli"].main(list(argv))
        self.stdout_bytes += len(buf.getvalue().encode())
        return code, buf.getvalue()

    def _cli_ok(self, argv, res):
        code, text = res
        if code != 0:
            return False
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.cli_digests.setdefault(tuple(argv), digest)
        if digest != first:
            return False
        if "json" in argv:
            doc = json.loads(text)
            m = np.array(doc["data"]).reshape(doc["rows"], doc["cols"], 2)
            m = m[..., 0] + 1j * m[..., 1]
            return np.abs(m @ m.conj().T - np.eye(doc["rows"])).max() < 1e-10
        return True


WORKLOADS = {"duality_sweep": DualitySweep, "apps": Apps}


# -- corruption for the self-test ----------------------------------------


def install_corruption(module_name, fname):
    """Flip one sign in the array returned by the first call of fname that
    has an entry to flip, rebinding it wherever schurkit namespaces hold it."""
    home = sys.modules[f"schurkit.{module_name}"]
    fn = getattr(home, fname)
    state = {"done": False}

    def corrupted(*args, **kwargs):
        result = fn(*args, **kwargs)
        if not state["done"]:
            target = result[0] if isinstance(result, tuple) else result
            state["done"] = flip_one_sign(getattr(target, "matrix", target))
        return result

    rebind(fn, corrupted)


# -- roles ----------------------------------------------------------------


def run_ops(ops, failures, tracer=None):
    """Run one round; returns (latencies, failed).  With a tracer, the
    checks run paused, so they are charged to no layer and to no window."""
    lat, failed = [], 0
    for op in ops:
        t = time.perf_counter()
        try:
            res = op.run()
            ok = True
        except Exception as exc:  # a raising op is a failed op, not a crash
            ok, res = False, exc
        lat.append(time.perf_counter() - t)
        if ok:
            try:
                with tracer.paused() if tracer else contextlib.nullcontext():
                    ok = bool(op.check(res))
            except Exception as exc:
                ok, res = False, exc
        if not ok:
            failed += 1
            if len(failures) < 5:
                failures.append(f"{op.kind}: {res!r}"[:300])
    return lat, failed


def role_cell(args, tracer):
    d, n = args.cell
    root = tracer.open_span("bench") if tracer else None
    import schurkit as sk
    import schurkit.cli  # noqa: F401

    emit(event="ready")
    if tracer:
        tracer.install()
    if args.corrupt:
        install_corruption("schur_transform", "schur_unitary")
    t = time.perf_counter()
    su, codec = sk.schur_unitary(d, n)
    build_s = time.perf_counter() - t
    msg = dict(event="result", build_s=build_s, rss_mb=peak_rss_mb())
    # the traced window ends with the build: the checks are the benchmark's
    if tracer:
        tracer.close_span(root)
        tracer.uninstall()
        msg["layers"] = layer_summary(tracer, [root])
        msg["build_spans"] = dict(tracer.build_spans)

    rng = np.random.default_rng(args.seed)
    young = sys.modules["schurkit.characters"].young_orthogonal
    reasons = schur_matrix_failures(su.matrix, codec, d, n, young, rng)
    if tracer:
        reasons += span_problems(tracer, [root])
    # the symmetric sector holds |+>^n entirely: one read per GZ pattern
    plus = np.full(d**n, d ** (-n / 2))
    mass = sum(
        float(np.linalg.norm(sk.dfs_decode((n,), qi, plus, d, n)) ** 2)
        for qi in range(1, math.comb(n + d - 1, n) + 1)
    )
    if abs(mass - 1.0) > 1e-10:
        reasons.append(f"symmetric-sector mass {mass}")
    msg["failures"] = reasons
    emit(**msg)


def role_loop(args, tracer):
    root = tracer.open_span("bench") if tracer else None
    import schurkit as sk
    import schurkit.cli  # noqa: F401

    if tracer:
        tracer.install()
    work = WORKLOADS[args.workload](sk, args.quick)
    rng = np.random.default_rng([args.seed, args.part])
    failures = []
    # one checked round fills the lazy caches; it is part of set-up, so
    # work moved into first calls shows in setup_s
    warm = work.round(rng)
    _, warm_failed = run_ops(warm, failures, tracer)
    if tracer:
        tracer.close_span(root)
    emit(event="ready")
    if args.corrupt:
        install_corruption(*work.corrupt_target())
    rounds, lat_all = [], []
    attempted, failed = len(warm), warm_failed
    msg = dict(event="result")
    start = time.perf_counter()

    def one_round(tracer=None):
        nonlocal attempted, failed
        ops = work.round(rng)
        lat, bad = run_ops(ops, failures, tracer)
        attempted += len(ops)
        failed += bad
        lat_all.extend(lat)
        return sum(lat)

    if tracer is None:
        while not rounds or len(rounds) < work.min_rounds or time.perf_counter() - start < args.seconds:
            rounds.append(one_round())
    else:
        # round pairs: untraced, then traced; the first traced round plus
        # set-up is the window the per-layer metrics describe
        tracer.uninstall()
        untraced, traced = [], []
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(one_round())
            tracer.install()
            before = getattr(work, "stdout_bytes", 0)
            window = tracer.open_span("bench")
            traced.append(one_round(tracer))
            tracer.close_span(window)
            tracer.uninstall()
            if "layers" not in msg:
                tracer.measure_sn_fourier()
                msg["layers"] = layer_summary(tracer, [root, window])
                failures += span_problems(tracer, [root, window])
                msg["layers"]["cli.stdout_bytes"] = getattr(work, "stdout_bytes", 0) - before
                msg["build_spans"] = dict(tracer.build_spans)
            tracer.reset()
        msg["untraced"] = untraced
        msg["traced"] = traced
        rounds = untraced
    msg.update(
        loop_s=time.perf_counter() - start,
        rounds=rounds,
        latencies=lat_all,
        attempted=attempted,
        failed=failed,
        failures=failures,
        rss_mb=peak_rss_mb(),
        tail_percentile=work.tail_percentile,
    )
    emit(**msg)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("cell", "loop"), required=True)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--workload", default="build_cold")
    p.add_argument("--cell", type=lambda s: tuple(int(x) for x in s.split(",")))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    args = p.parse_args()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.import_hook()
    if args.role == "cell":
        role_cell(args, tracer)
    else:
        role_loop(args, tracer)


if __name__ == "__main__":
    main()
