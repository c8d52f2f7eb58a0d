"""Command-line front end: solve, verify, probe, sweep-epsilon, report.

This module loads the run configuration and carries out the commands; every
quantity that ``verify`` and ``sweep-epsilon`` report is measured in
``checks``.  Configurations are JSON; node tables are CSV; kernel caches
are binary blocks.  Reports never carry timestamps, so a fixed config and
seed yield byte-identical output.  Exit codes: 0 pass, 1 check failure, 2
usage or configuration error.
"""

from __future__ import annotations

import os


def _cap_threads():
    n = os.environ.get("LIPVAR_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, n)


_cap_threads()

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import checks, reports
from .domain_field.grid import (
    DomainConfig,
    arc_indicator,
    build_domain,
    greens_function,
    harmonic_extension,
    harmonic_measure,
    kernel_measure,
)
from . import kernels as K
from .errors import ConfigError, LipvarError
from .omega import Segment, find_positive_epsilon
from .variation_measure import SurfaceBall, nu_limit, probe_ball, variation_ratio, vertical_variation

SUITES = (*checks.SUITES, "all")


@dataclass
class RunConfig:
    domain: DomainConfig
    epsilon: float = 0.05
    u_arc: tuple = (-1.0, 1.0)
    segments: tuple = ((0.2, 0.4),)
    balls: tuple = ({"center": (0.0, 0.0), "radius": 0.5},)
    z1: tuple = (0.0, 2.0)
    y_sequence: tuple | None = None
    wos_samples: int = 20000

    @classmethod
    def load(cls, path: str, grid_h: float | None = None,
             seed: int | None = None) -> "RunConfig":
        try:
            raw = _json_object(Path(path))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        try:
            dom = DomainConfig.from_dict(raw["domain"])
        except KeyError as e:
            raise ConfigError(f"config missing required key: {e}")
        # the flags are checked as the config's grid_spacing and wos_seed are
        flags = {k: v for k, v in (("grid_spacing", grid_h), ("wos_seed", seed))
                 if v is not None}
        if flags:
            dom = DomainConfig.from_dict(dict(dom.to_dict(), **flags))
        eps = raw.get("epsilon", 0.05)
        if not (_is_number(eps) and 0.0 <= eps <= 0.5):
            raise ConfigError(f"epsilon must be a number in [0, 0.5], not {eps!r}")
        # verify and sweep-epsilon read one segment; a second would be ignored
        try:
            (seg,) = [Segment(float(m), float(M)) for m, M in raw.get("segments", [(0.2, 0.4)])]
        except (TypeError, ValueError):
            raise ConfigError("segments must hold exactly one [m, M] pair of numbers")
        if seg.M > 1.0:
            raise ConfigError(f"segment top {seg.M} above 1, where the kernel band ends")
        balls = raw.get("balls", [{"center": (0.0, 0.0), "radius": 0.5}])
        if not (isinstance(balls, list) and balls):
            raise ConfigError("balls must be a list of at least one ball")
        balls = tuple(_ball(n, b) for n, b in enumerate(balls))
        wos = raw.get("wos_samples", 20000)
        if not _is_number(wos) or wos != int(wos) or wos < 1:
            raise ConfigError("wos_samples must be an integer >= 1")
        # the arc must overlap the boundary mesh's cells, or u = 0
        edge = dom.box_halfwidth + dom.grid_spacing / 2
        u_arc = _numbers(raw, "u_arc", (-1.0, 1.0),
                         f"two numbers a < b with b > {-edge} and a < {edge}",
                         lambda v: len(v) == 2 and v[0] < v[1] and v[1] > -edge and v[0] < edge)
        return cls(
            domain=dom,
            epsilon=float(eps),
            u_arc=u_arc,
            segments=((seg.m, seg.M),),
            balls=balls,
            z1=_numbers(raw, "z1", (0.0, 2.0), "a point x, y of the grid, where u is read: "
                        f"|x| <= {dom.box_halfwidth} and y <= {dom.box_height}",
                        lambda v: (len(v) == 2 and abs(v[0]) <= dom.box_halfwidth
                                   and v[1] <= dom.box_height)),
            # the adjoint sweep's rule: points in (0, 1]
            y_sequence=_numbers(raw, "y_sequence", None,
                                "a non-empty list of numbers in (0, 1]",
                                lambda v: v and all(0.0 < y <= 1.0 for y in v)),
            wos_samples=int(wos),
        )


def _json_object(path: Path) -> dict:
    """The JSON object held in ``path``; malformed JSON or another top-level
    value is a ConfigError that names the file."""
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"malformed JSON in {path} at line {e.lineno} column {e.colno}: {e.msg}"
        )
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not UTF-8 text")
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and bool(np.isfinite(v))


def _ball(n: int, b) -> dict:
    """Ball n of the config as {"center": (x, y), "radius": r}: a center of
    two finite numbers and a positive finite radius, and no other key;
    anything else is a ConfigError."""
    if not isinstance(b, dict) or set(b) != {"center", "radius"}:
        raise ConfigError(f"balls[{n}] must hold exactly the keys center and radius")
    c, r = b["center"], b["radius"]
    if not (isinstance(c, (list, tuple)) and len(c) == 2 and all(map(_is_number, c))):
        raise ConfigError(f"balls[{n}] center must hold two finite numbers")
    if not (_is_number(r) and r > 0):
        raise ConfigError(f"balls[{n}] radius must be a positive finite number")
    return {"center": (float(c[0]), float(c[1])), "radius": float(r)}


def _numbers(raw: dict, key: str, default, what: str, valid) -> tuple | None:
    """The finite numbers listed under ``key`` that pass ``valid``, as a tuple
    (``default`` when the key is absent); anything else is a ConfigError."""
    if key not in raw:
        return default
    v = raw[key]
    if not (isinstance(v, list) and all(map(_is_number, v)) and valid(v)):
        raise ConfigError(f"{key} must hold {what}")
    return tuple(float(x) for x in v)


def _cache_dir(out: Path, cfg: RunConfig) -> tuple:
    h = reports.content_hash({"domain": cfg.domain.to_dict(), "u_arc": list(cfg.u_arc)})
    return out / "cache" / h, h


def _build(cfg: RunConfig):
    domain = build_domain(cfg.domain)
    u = harmonic_extension(domain, arc_indicator(domain, *cfg.u_arc))
    return domain, u


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(cfg: RunConfig, out: Path, use_cache: bool = True) -> int:
    cache, h = _cache_dir(out, cfg)
    manifest = cache / "manifest.json"
    if manifest.exists():
        recorded = _json_object(manifest)
        if recorded.get("hash") != h:
            print(f"error: inconsistent cached hash in {manifest}", file=sys.stderr)
            return 2
        if use_cache:
            print(f"cache hit: {cache}")
            return 0
    cache.mkdir(parents=True, exist_ok=True)

    domain, u = _build(cfg)
    m = harmonic_measure(domain, cfg.domain.pole)
    reports.write_node_table(cache / "mesh.csv", domain,
                             {"arc_weight": domain.arc_weights})
    reports.write_node_table(cache / "hm_weights.csv", domain,
                             {"mass": domain.hm_weights})
    reports.write_node_table(cache / "harmonic_measure.csv", domain,
                             {"mass": m.s_masses})
    reports.write_node_table(cache / "u_boundary_band.csv", domain,
                             {f"u_y{k}": u.band()[k] for k in
                              range(0, domain.field_rows + 1, max(1, domain.field_rows // 8))})
    g = greens_function(domain, cfg.domain.pole)
    heights = [0.5, 1.0, 1.5, 2.0, 3.0]
    px, py = cfg.domain.pole
    rows = [[y, g.at((px, py + y))] for y in heights if py + y < cfg.domain.box_height]
    reports.write_csv(cache / "green_samples.csv", ["dy", "g"], rows)

    y_ref = max(0.2, 4 * domain.h)
    kref = K.build_k(domain, y_ref)
    reports.write_kernel_binary(cache / "k_reference.lvkb", kref)
    if domain.nx <= 200:
        reports.write_kernel_csv(cache / "k_reference.csv", kref)
    reports.write_json(manifest, {
        "hash": h,
        "domain": cfg.domain.to_dict(),
        "u_arc": list(cfg.u_arc),
        "box_mass": {"sides": m.box_side_mass, "top": m.box_top_mass},
    })
    print(f"solved: artifacts in {cache}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig, suite: str, out: Path) -> int:
    domain, u = _build(cfg)
    names = list(checks.SUITES) if suite == "all" else [suite]
    records = checks.run_suites(cfg, domain, u, names)
    report = {"suite": suite, "checks": records,
              "passed": all(c["passed"] for c in records)}
    out.mkdir(parents=True, exist_ok=True)
    reports.write_json(out / f"verify_{suite}.json", report)
    for c in records:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
              f"margin={c['margin']:.3e} ({c['bound']})")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# probe, sweep, report
# ---------------------------------------------------------------------------


def cmd_probe(cfg: RunConfig, out: Path) -> int:
    domain, u = _build(cfg)
    V = vertical_variation(domain, u)
    kappa = kernel_measure(domain, (cfg.z1[0], cfg.z1[1] - 1.0))
    nu = nu_limit(domain, u, kappa, cfg.epsilon, cfg.y_sequence)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for n, entry in enumerate(cfg.balls):
        ball = SurfaceBall(tuple(entry["center"]), float(entry["radius"]))
        res = probe_ball(domain, u, ball, z1=cfg.z1, eps=cfg.epsilon,
                         variation=V, nu=nu)
        reports.write_json(out / f"probe_{n}.json", res.to_dict())
        mask = SurfaceBall(res.ball_center, res.ball_radius).node_mask(domain)
        reports.write_node_table(out / f"probe_{n}_V.csv", domain,
                                 {"V": np.where(mask, V.values, np.nan),
                                  "in_ball": mask.astype(float)})
        print(f"ball {n}: x*={res.node_xy} V={res.variation_at_node:.5f} "
              f"ratio={res.ratio:.5f} chain_ok={res.chain_ok}")
        if not res.chain_ok:
            status = 1
    return status


def cmd_sweep_epsilon(cfg: RunConfig, out: Path) -> int:
    domain, u = _build(cfg)
    seg = Segment(*cfg.segments[0])
    gaps = {eps: checks.closeness_gap(domain, u, seg, eps) for eps in (0.02, 0.04, 0.08)}
    eps_list = sorted(gaps)
    slope = float(np.polyfit(np.log(eps_list), np.log([gaps[e] for e in eps_list]), 1)[0])
    eps0 = find_positive_epsilon(domain, u)
    kappa = kernel_measure(domain, (cfg.z1[0], cfg.z1[1] - 1.0))
    balls = [SurfaceBall(tuple(b["center"]), float(b["radius"])).snap_to(domain)
             for b in cfg.balls]
    masks = [b.node_mask(domain) for b in balls]
    V = vertical_variation(domain, u)
    floors = {}
    for eps in (0.02, 0.05, 0.1):
        nu, _ = nu_limit(domain, u, kappa, eps, cfg.y_sequence)
        r1, int_v, int_u1, masses = variation_ratio(u, kappa, eps, nu, V, masks)
        floors[str(eps)] = {
            "eps": eps, "R1": r1, "int_V_dnu": int_v, "int_u1_dkappa": int_u1,
            "balls": [{"center": list(b.center), "radius": b.radius, "nu_mass": mass}
                      for b, mass in zip(balls, masses)],
        }
    out.mkdir(parents=True, exist_ok=True)
    reports.write_json(out / "epsilon_sweep.json", {
        "segment": [seg.m, seg.M],
        "gap_by_eps": {str(k): v for k, v in gaps.items()},
        "gap_loglog_slope": slope,
        "positive_epsilon_threshold": eps0,
        "measure_reports": floors,
    })
    print(f"gap slope={slope:.3f}  eps0={eps0:.4f}")
    return 0


def cmd_report(out: Path) -> int:
    merged = {}
    rows = []
    # report.json is this command's own output, not a report to collate
    for p in sorted(set(out.glob("*.json")) - {out / "report.json"}):
        merged[p.stem] = _json_object(p)
        try:
            rows.extend([p.stem, c["name"], c["margin"], int(c["passed"])]
                        for c in merged[p.stem].get("checks", []))
        except (TypeError, KeyError, ValueError):
            raise ConfigError(f"{p}: checks must be a list of check records")
    if not merged:
        print(f"no reports found in {out}", file=sys.stderr)
        return 2
    reports.write_json(out / "report.json", merged)
    if rows:
        reports.write_csv(out / "checks.csv", ["suite", "check", "margin", "passed"], rows)
    print(f"collated {len(merged)} reports into {out / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser():
    p = argparse.ArgumentParser(prog="lipvar",
                                description="harmonic-measure kernel toolkit")
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--out", default="lipvar_out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override wos_seed")
    p.add_argument("--grid-h", type=float, default=None, help="override grid spacing")
    p.add_argument("--no-cache", action="store_true", help="ignore cached artifacts")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("solve")
    v = sub.add_parser("verify")
    v.add_argument("suite", choices=SUITES)
    sub.add_parser("probe")
    sub.add_parser("sweep-epsilon")
    sub.add_parser("report")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = Path(args.out)
    if not (args.config or args.command == "report"):
        print("error: --config is required for this command", file=sys.stderr)
        return 2
    try:
        if args.command == "report":
            return cmd_report(out)
        cfg = RunConfig.load(args.config, grid_h=args.grid_h, seed=args.seed)
        if args.command == "solve":
            return cmd_solve(cfg, out, use_cache=not args.no_cache)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, out)
        if args.command == "probe":
            return cmd_probe(cfg, out)
        if args.command == "sweep-epsilon":
            return cmd_sweep_epsilon(cfg, out)
    except LipvarError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
