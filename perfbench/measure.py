"""Timed and traced runs of one workload; builds the result and the manifest."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

import calabiflow.cli as cli
import calabiflow.flow as flow
import calabiflow.sobolev as sobolev
from hostspeed import HostSpeed
from tracer import Patches, Tracer, install, summarize
from workloads import BUNDLE_CLASS, Checks, Samples, WORKLOADS


COLD_STARTS_PER_PASS = 2


def certificate_bound(ca: float):
    cert = sobolev.certify(ca, sobolev.ClassTopology.standard_o3(BUNDLE_CLASS.chi_S))
    return cert.sobolev_bound if cert.has_bound else None


def cli_in_process(wl, checks: Checks) -> None:
    """The sobolev-bound subcommand through cli.main, output checked."""
    for ca in wl.cli_ca:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--json", "sobolev-bound", "--ca", repr(ca)])
        checks.check("cli sobolev-bound in process", code == 0
                     and json.loads(buf.getvalue())["sobolev_bound"] == certificate_bound(ca),
                     buf.getvalue()[:200])


def cold_starts(wl, checks: Checks, root, samples: Samples) -> None:
    """Fresh `python -m calabiflow.cli` processes, timed and checked.

    Each start is corrected by the mean of the start-up kernel timed just
    before and just after it (``HostSpeed.start_factor``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    factor = samples.host.start_factor(env, root)
    for ca in wl.cli_ca[:COLD_STARTS_PER_PASS]:
        cmd = [sys.executable, "-m", "calabiflow.cli", "--json", "sobolev-bound", "--ca", repr(ca)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=60)
        raw = time.perf_counter() - t0
        after = samples.host.start_factor(env, root)
        samples.add("cold_start_s", raw, 0.5 * (factor + after))
        factor = after
        ok = proc.returncode == 0 and json.loads(proc.stdout)["sobolev_bound"] == certificate_bound(ca)
        checks.check("cli sobolev-bound cold start", ok, proc.stderr[-200:])


def one_pass(wl, samples: Samples) -> None:
    """Set-up and work, each timed as a block of host-corrected calls."""
    with samples.host.block() as b:
        state = wl.setup(samples.host)
    samples.add("setup_s", b["raw"], b["factor"])
    with samples.host.block() as b:
        wl.work(state, samples)
    samples.add("wall_s", b["raw"], b["factor"])
    wl.check(state, samples)


def install_step_timer(patches: Patches, samples: Samples) -> None:
    """Time every accepted flow.step and record the proposed and accepted dt."""
    def timed_step(step):
        def wrapper(*args, **kwargs):
            st = samples.timed("step_s", step, *args, **kwargs)
            samples.dt_last.append(st.dt_last)
            return st
        return wrapper

    def recorded_dt(proposed_dt):
        def wrapper(*args, **kwargs):
            dt = proposed_dt(*args, **kwargs)
            samples.proposed_dt.append(dt)
            return dt
        return wrapper

    patches.function(flow, "step", timed_step)
    patches.function(flow, "proposed_dt", recorded_dt)


def timed_run(wl, samples, checks, args, root, min_passes) -> dict:
    """Passes until the next one would overrun --seconds (at least min_passes),
    each followed by CLI cold starts, so cold starts sample the whole run."""
    start = time.perf_counter()
    while True:
        one_pass(wl, samples)
        cli_in_process(wl, checks)
        cold_starts(wl, checks, root, samples)
        n = len(samples.setup_s)
        elapsed = time.perf_counter() - start
        if n >= min_passes and elapsed * (n + 1) / n > args.seconds:
            break
    calabi_err, r_err = wl.fd_errors()
    step_s = np.asarray(samples.step_s)
    return {
        "setup_s": (float(np.median(samples.setup_s)), "s"),
        "wall_s": (float(np.median(samples.wall_s)), "s"),
        "steps_per_s": (len(step_s) / float(step_s.sum()), "1/s"),
        "step_ms_p50": (1e3 * float(np.median(step_s)), "ms"),
        "step_ms_p90": (1e3 * float(np.percentile(step_s, 90)), "ms"),
        "monitor_ms_p50": (1e3 * float(np.median(samples.monitor_s)), "ms"),
        "sim_t_per_wall_s": (wl.sim_t_per_wall_s(samples), "flow-time/s"),
        "cold_start_s": (float(np.median(samples.cold_start_s)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "check_pass_rate": ((checks.attempted - checks.failed) / checks.attempted, "ratio"),
        "calabi_rel_err": (float(calabi_err), "ratio"),
        "r_max_err": (float(r_err), "1"),
        "rate_residual_max": (float(max(samples.rate_residual)), "ratio"),
    }


def traced_run(wl, samples, checks, import_s, out_dir) -> dict:
    """One pass without spans, then two traced passes (run ids T1, T2)."""
    tracer = Tracer()
    one_pass(wl, samples)
    steps_t1 = []   # index range of T1's steps in the step samples
    with Patches() as patches:
        install(tracer, patches)
        for run_id in ("T1", "T2"):
            tracer.run_id = run_id
            steps_t1.append(len(samples.step_s))
            with tracer.span("pass"):
                one_pass(wl, samples)
            cli_in_process(wl, checks)
    tracer.write(out_dir / "spans.jsonl")

    s1, s2 = summarize(tracer.spans, "T1"), summarize(tracer.spans, "T2")
    checks.check("call counts repeat between traced passes",
                 s1["calls"] == s2["calls"] and s1["in_step"] == s2["in_step"],
                 {k: (s1["calls"].get(k), s2["calls"].get(k))
                  for k in set(s1["calls"]) | set(s2["calls"])
                  if s1["calls"].get(k) != s2["calls"].get(k)})
    calls, tot, in_step = s1["calls"], s1["total_s"], s1["in_step"]

    lo, hi = steps_t1
    n_steps = calls.get("flow.step", 0)
    # step k of a pass was proposed at proposed_dt[k] and accepted at dt_last[k];
    # each rejection halves dt exactly
    attempts = sum(1 + round(math.log2(p / a)) for p, a in
                   zip(samples.proposed_dt[lo:hi], samples.dt_last[lo:hi])) if n_steps else 0
    dts = samples.dt_last[lo:hi]

    def per_step(name):
        return in_step.get(name, 0) / n_steps if n_steps else 0.0

    def mean_ms(name):
        return 1e3 * tot[name] / calls[name] if calls.get(name) else 0.0

    def mean_ms_after_first(name):
        n = calls.get(name, 0) - calls.get(name + "#first", 0)
        return 1e3 * (tot.get(name, 0.0) - tot.get(name + "#first", 0.0)) / n if n else 0.0

    def total(name):
        return tot.get(name, 0.0)

    wall_u, wall_t1, wall_t2 = samples.wall_s[-3:]
    raw_wall_t1 = samples.raw["wall_s"][-2]
    m = {
        "polytope.grid_build_s": (total("polytope.build_grid"), "s"),
        "polytope.cell_weights_s": (total("polytope.cell_weights"), "s"),
        "polytope.boundary_distance_s": (total("polytope.boundary_distance"), "s"),
        "polytope.stencil_build_s": (total("polytope.field_jets#first"), "s"),
        "polytope.n_nodes": (sum(wl.node_counts().values()), "count"),
        "polytope.field_jets_per_step": (per_step("polytope.field_jets"), "count"),
        "polytope.field_jets_ms": (mean_ms_after_first("polytope.field_jets"), "ms"),
        "polytope.diff_per_step": (per_step("polytope.diff"), "count"),
        "polytope.diff_ms": (mean_ms("polytope.diff"), "ms"),
        "potential.jets_ms": (mean_ms("potential.jets#first"), "ms"),
        "potential.min_hessian_ms": (mean_ms("potential.min_hessian_eigenvalues"), "ms"),
        "potential.closed_form_ms": (mean_ms("potential.closed_form"), "ms"),
        "potential.snapshot_load_s": (total("potential.load_snapshot"), "s"),
        "potential.snapshot_save_s": (total("potential.save_snapshot"), "s"),
        "curvature.context_builds_per_step": (per_step("curvature.curvature_context#first"), "count"),
        "curvature.context_ms": (mean_ms("curvature.curvature_context#first"), "ms"),
        "curvature.weighted_scalar_calls_per_step": (per_step("curvature.weighted_scalar_field"), "count"),
        "curvature.weighted_scalar_ms": (mean_ms("curvature.weighted_scalar_field#first"), "ms"),
        "curvature.rm2_total_ms": (mean_ms("curvature.rm2_total_field"), "ms"),
        "curvature.admissible_blocks_ms": (mean_ms("curvature.admissible_blocks"), "ms"),
        "energy.quadrature_per_step": (per_step("energy.interior_quadrature"), "count"),
        "energy.quadrature_ms": (mean_ms("energy.interior_quadrature"), "ms"),
        "energy.energy_report_ms": (mean_ms("energy.energy_report"), "ms"),
        "energy.average_scalar_s": (total("energy.average_scalar"), "s"),
        "flow.attempts_per_step": (attempts / n_steps if n_steps else 0.0, "count"),
        "flow.accept_ratio": (n_steps / attempts if attempts else 0.0, "ratio"),
        "flow.dt_mean": (float(np.mean(dts)) if dts else 0.0, "flow-time"),
        "flow.proposed_dt_ms": (mean_ms("flow.proposed_dt"), "ms"),
        "flow.distance_field_ms": (mean_ms("flow.distance_field"), "ms"),
        "flow.measure_ms": (mean_ms("flow.measure"), "ms"),
        "flow.write_outputs_s": (total("flow.write_outputs"), "s"),
        "flow.step_share": (total("flow.step") / raw_wall_t1, "ratio"),
        "sobolev.inequality_test_ms": (mean_ms("sobolev.sobolev_inequality_test"), "ms"),
        "sobolev.certify_ms": (mean_ms("sobolev.certify"), "ms"),
        "cli.import_s": (import_s, "s"),
        "cli.main_ms": (mean_ms("cli.main"), "ms"),
        "trace.overhead_s": (0.5 * (wall_t1 + wall_t2) - wall_u, "s"),
        "trace.spans": (sum(1 for s in tracer.spans if s[4] == "T1"), "count"),
    }
    for layer, secs in s1["self_s"].items():
        m[f"{layer}.self_s"] = (secs, "s")
    return m


def source_hash(root) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "calabiflow").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_manifest(path, args, wl, samples, checks, caps, root) -> None:
    import scipy
    import sympy

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_caps": caps,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "sympy": sympy.__version__},
        "git_commit": git_commit(root),
        "source_sha256": source_hash(root),
        "node_counts": wl.node_counts(),
        "polytope_hashes": wl.polytopes(),
        "inputs": {"bump": wl.bump, "cli_ca": wl.cli_ca},
        "samples": {"passes": len(samples.setup_s), "steps": len(samples.step_s),
                    "monitors": len(samples.monitor_s),
                    "cold_starts": len(samples.cold_start_s)},
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
    }
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")


def run(args, out_dir, import_s, root, caps, min_passes) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    checks = Checks()
    cls, full, tiny = WORKLOADS[args.workload]
    wl = cls(args.workload, args.seed, out_dir, checks, **(tiny if args.tiny else full))
    samples = Samples(HostSpeed())
    with Patches() as patches:
        install_step_timer(patches, samples)
        if args.trace:
            metrics = traced_run(wl, samples, checks, import_s, out_dir)
        else:
            metrics = timed_run(wl, samples, checks, args, root, min_passes)
    write_manifest(out_dir / "manifest.json", args, wl, samples, checks, caps, root)
    (out_dir / "samples.json").write_text(json.dumps(samples.to_dict()) + "\n")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
