"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The finite-difference oracle (identities.central_difference)
uses one Richardson extrapolation level; random configurations are
seed-deterministic.
"""
import json
import time

import numpy as np

from pachner33 import complexes as cx
from pachner33 import flatmetric as fm
from pachner33 import identities as idn
from pachner33 import invariants as iv
from pachner33 import jacobians as jb
from pachner33.cli import main as cli_main

TOL = 1e-6


def report(num, name, passed, detail):
    print(f"criterion {num:2d} ({name}): {'PASS' if passed else 'FAIL'} [{detail}]")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_opposite_edge_derivative():
    t0 = time.perf_counter()
    battery = idn.battery_opposite_edge_derivative(trials=100, seed=101, tol=TOL)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "angle/length derivative vs area over 24 volumes",
        battery.passed and elapsed < 5.0,
        f"worst {battery.max_residual:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_angle_sum_identities():
    t0 = time.perf_counter()
    plain = idn.battery_schlafli(trials=100, seed=202, tol=TOL)
    modified = idn.battery_modified_schlafli(trials=100, seed=202, tol=TOL)
    elapsed = time.perf_counter() - t0
    report(
        2,
        "area-weighted and length-weighted angle-sum identities",
        plain.passed and modified.passed and elapsed < 5.0,
        f"worst {plain.max_residual:.3e}/{modified.max_residual:.3e}, {elapsed:.2f}s",
    )


def test_criterion_03_cluster_closed_forms():
    t0 = time.perf_counter()
    battery = idn.battery_cluster_closed_forms(trials=100, seed=303, tol=TOL)
    elapsed = time.perf_counter() - t0
    report(
        3,
        "deficit/length entries vs volume-ratio closed forms",
        battery.passed and elapsed < 10.0,
        f"worst {battery.max_residual:.3e}, {elapsed:.2f}s",
    )


def test_criterion_04_six_term_relation():
    battery = idn.battery_six_term(trials=100, seed=404, tol=TOL)
    report(
        4,
        "six-volume gradient relation and parallelism",
        battery.passed,
        f"worst {battery.max_residual:.3e}, min |cos| {battery.extras['min_cosine']:.12f}",
    )


def test_criterion_05_flat_realizations():
    complex_ = cx.boundary_delta5()
    worst_omega = worst_Omega = 0.0
    for seed in range(20):
        m = fm.realize(complex_, fm.random_realization(complex_, seed=500 + seed))
        flat = fm.check_flat(complex_, m, tol=1e-9)
        worst_omega = max(worst_omega, flat.max_omega)
        worst_Omega = max(worst_Omega, flat.max_Omega)
    report(
        5,
        "face and edge deficits vanish on 20 random flat placements",
        worst_omega < 1e-9 and worst_Omega < 1e-9,
        f"max |omega| {worst_omega:.3e}, max |Omega| {worst_Omega:.3e}",
    )


def test_criterion_06_symmetry_and_conjugacy():
    cases = []
    d5 = cx.boundary_delta5()
    cases.append(("delta5", d5, fm.random_realization(d5, seed=601)))
    join = cx.tetra_circle_join()
    join_coords = fm.random_realization(join, seed=602)
    cases.append(("join", join, join_coords))
    moved, _ = cx.pachner_33(join, (0, 1, 2))
    cases.append(("moved join", moved, join_coords))

    worst_sym = worst_conj = 0.0
    for _, c, coords in cases:
        jac = jb.build_jacobians(c, fm.realize(c, coords))
        worst_sym = max(worst_sym, jac.symmetry_residual())
        worst_conj = max(worst_conj, jac.conjugacy_residual())
    report(
        6,
        "area-deficit matrix symmetric, edge/area matrix conjugate",
        worst_sym <= TOL and worst_conj <= TOL,
        f"asymmetry {worst_sym:.3e}, conjugacy {worst_conj:.3e} on {len(cases)} fixtures",
    )


def test_criterion_07_rank_and_kernel(motion_dL):
    c = cx.boundary_delta5()
    coords = fm.random_realization(c, seed=707)
    m = fm.realize(c, coords)
    M = jb.assemble_domega_dL(c, m)
    rank = jb.rank_and_submatrix(M).rank

    rng = np.random.default_rng(7070)
    worst = 0.0
    for _ in range(10):
        delta = {v: rng.standard_normal(4) for v in c.vertices}
        dL = motion_dL(c, coords, delta)
        worst = max(
            worst, np.abs(M @ dL).max() / (np.linalg.norm(dL) * np.abs(M).max())
        )
    report(
        7,
        "deficit/length rank one, vertex motions in the kernel",
        rank == 1 and worst <= TOL,
        f"rank {rank}, kernel residual {worst:.3e}",
    )


def test_criterion_08_move_invariance_all_triangles():
    c = cx.boundary_delta5()
    coords = fm.random_realization(c, seed=808)
    t0 = time.perf_counter()
    worst = 0.0
    for tri in c.faces[2]:
        rep = iv.compare_under_move(c, coords, tri)
        worst = max(worst, rep.deviation)
    elapsed = time.perf_counter() - t0
    report(
        8,
        "invariant unchanged under the move at all 20 triangles",
        worst <= TOL and elapsed < 10.0,
        f"worst | |ratio|-1 | = {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_09_selection_independence():
    c = cx.tetra_circle_join()
    m = fm.realize(c, fm.random_realization(c, seed=909))
    jac = jb.build_jacobians(c, m)
    M = jac.dOmega_dL
    sel = jb.rank_and_submatrix(M)
    assert sel.rank >= 2

    edge = iv.basis_change_factor(M, sel, ("edge", sel.cols_comp[0], sel.cols[-1]))
    edge_contract = abs(edge.factor_det + edge.factor_form) / abs(edge.factor_det)

    new_row = next(
        r for r in sel.rows_comp if np.abs(M[r]).max() > 0.1 * np.abs(M).max()
    )
    coeffs, *_ = np.linalg.lstsq(M[list(sel.rows)].T, M[new_row], rcond=None)
    old_row = sel.rows[int(np.argmax(np.abs(coeffs)))]
    face = iv.basis_change_factor(
        M, sel, ("face", new_row, old_row), conjugate=jac.dBigOmega_dS
    )
    face_det_contract = abs(face.factor_det - face.coefficient) / abs(face.coefficient)
    face_form_contract = abs(face.factor_det + face.factor_form) / abs(face.factor_det)

    # 1 / det(B) changes by factor_form / factor_det per swap
    q_edge = abs(edge.factor_form / edge.factor_det)
    q_face = abs(face.factor_form / face.factor_det)
    composite = max(q_edge - 1.0, q_face - 1.0)

    report(
        9,
        "basis-change factor contracts and selection independence",
        max(edge_contract, face_det_contract, face_form_contract) <= TOL
        and composite <= TOL,
        f"edge {edge_contract:.3e}, face {face_det_contract:.3e}/"
        f"{face_form_contract:.3e}, composite {composite:.3e}",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    from importlib import resources

    fixture = str(resources.files("pachner33.fixtures").joinpath("boundary_delta5.json"))
    outs = []
    for _ in range(2):
        code = cli_main(["compare", fixture, "--face", "0,1,2"])
        captured = capsys.readouterr().out
        assert code == 0
        rep = json.loads(captured)
        rep.pop("timing_s")
        outs.append(json.dumps(rep, sort_keys=True))
    same = outs[0] == outs[1]
    # also a seeded command on a coordinate-free document
    doc = json.loads(open(fixture).read())
    doc.pop("coords")
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    outs2 = []
    for _ in range(2):
        code = cli_main(["jacobian", str(bare), "--seed", "13"])
        captured = capsys.readouterr().out
        assert code == 0
        rep = json.loads(captured)
        rep.pop("timing_s")
        outs2.append(json.dumps(rep, sort_keys=True))
    with capsys.disabled():
        report(
            10,
            "CLI outputs byte-stable modulo timing",
            same and outs2[0] == outs2[1],
            "compare + seeded jacobian reproduced",
        )
