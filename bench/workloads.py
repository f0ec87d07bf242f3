"""Seeded inputs for the benchmark workloads and the independent reference
computations their outputs are checked against.

Nothing here calls into ``nca``: inputs are plain spec dictionaries and
numpy arrays, and every expected value is computed from the inputs with
numpy alone, so a wrong answer from the program cannot also be the yardstick.
"""
from __future__ import annotations

import json

import numpy as np

NETWORK_SIZES = (6, 8, 12, 16)
LINDBLAD_SIZES = (2, 3, 4, 5)
EDGE_DENSITY = 0.7


# -- encoding -----------------------------------------------------------------


def _matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _element(blocks) -> list:
    return [_matrix(m) for m in blocks]


# -- random inputs ------------------------------------------------------------


def random_conductances(rng, n) -> np.ndarray:
    """Symmetric conductances in [0.2, 2] on a connected random graph with
    exactly round(EDGE_DENSITY * n(n-1)/2) edges.

    The edge count is fixed so that the one-form space, whose dimension is
    twice the edge count, and with it the work per operation, does not
    change with the seed.
    """
    edges = max(n - 1, round(EDGE_DENSITY * n * (n - 1) / 2))
    order = rng.permutation(n)
    chosen = {tuple(sorted((int(order[i]), int(order[rng.integers(i)]))))
              for i in range(1, n)}
    rest = [(p, q) for p in range(n) for q in range(p + 1, n) if (p, q) not in chosen]
    for k in rng.choice(len(rest), size=edges - len(chosen), replace=False):
        chosen.add(rest[int(k)])
    c = np.zeros((n, n))
    for p, q in sorted(chosen):
        c[p, q] = c[q, p] = rng.uniform(0.2, 2.0)
    return c


def _random_matrix(rng, n) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def _random_hermitian(rng, n) -> np.ndarray:
    x = _random_matrix(rng, n)
    return (x + x.conj().T) / 2


def _random_density(rng, sizes, weights) -> list:
    """A full-rank density: positive blocks with sum_b w_b tr(rho_b) = 1."""
    blocks = []
    for n in sizes:
        x = _random_matrix(rng, n)
        blocks.append(x @ x.conj().T + 0.1 * np.eye(n))
    total = sum(w * np.trace(b).real for w, b in zip(weights, blocks))
    return [b / total for b in blocks]


def _random_weight(rng, sizes, weights) -> list:
    """A central positive weight element of unit trace."""
    lams = rng.uniform(0.5, 2.0, len(sizes))
    lams = lams / sum(l * w * n for l, w, n in zip(lams, weights, sizes))
    return [l * np.eye(n) for l, n in zip(lams, sizes)]


def _spec_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# -- network-suite ------------------------------------------------------------


def network_case(rng, n) -> dict:
    c = random_conductances(rng, n)
    points = sorted(int(x) for x in rng.choice(n, size=3, replace=False))
    keep = sorted(int(x) for x in rng.choice(n, size=n // 2, replace=False))
    states = []
    for x in points:
        blocks = [np.zeros((1, 1)) for _ in range(n)]
        blocks[x][0, 0] = 1.0
        states.append({"density": _element(blocks)})
    spec = {
        "algebra": {"blocks": [1] * n, "trace_weights": [1.0] * n},
        "generator": {"kind": "network", "c": c.tolist()},
        "states": states,
        "projection": {"keep_blocks": keep},
        "seed": _spec_seed(rng),
    }
    return {"name": f"network-N{n}", "size": n, "spec": json.dumps(spec),
            "c": c, "points": points, "keep": keep}


# -- matrix-suite -------------------------------------------------------------


def lindblad_case(rng, n) -> dict:
    v = _random_matrix(rng, n)
    h = _random_hermitian(rng, n)
    sizes, weights = [n], [1.0]
    spec = {
        "algebra": {"blocks": sizes, "trace_weights": weights},
        "generator": {"kind": "lindblad",
                      "vs": [_element([v]), _element([v.conj().T]), _element([h])]},
        "states": [{"density": _element(_random_density(rng, sizes, weights))}
                   for _ in range(3)],
        "weight_element": _element(_random_weight(rng, sizes, weights)),
        "seed": _spec_seed(rng),
    }
    return {"name": f"lindblad-M{n}", "size": n * n, "spec": json.dumps(spec),
            "sizes": sizes, "vs": [[v], [v.conj().T], [h]]}


def spectral_triple_case(rng, sizes) -> dict:
    weights = [1.0] * len(sizes)
    d_op = _random_hermitian(rng, sum(sizes))
    spec = {
        "algebra": {"blocks": list(sizes), "trace_weights": weights},
        "generator": {"kind": "spectral_triple", "D": _matrix(d_op)},
        "states": [{"density": _element(_random_density(rng, sizes, weights))}
                   for _ in range(3)],
        "projection": {"keep_blocks": [0]},
        "weight_element": _element(_random_weight(rng, sizes, weights)),
        "seed": _spec_seed(rng),
    }
    label = "-".join(str(n) for n in sizes)
    return {"name": f"spectral-triple-{label}", "size": sum(n * n for n in sizes),
            "spec": json.dumps(spec), "sizes": list(sizes), "vs": None, "D": d_op}


def lindblad_blocks_case(rng) -> dict:
    """A Lindblad pair with block-diagonal v on [3,2,1] with unequal weights;
    it does not couple the blocks, so its Laplacian kernel holds each block's
    identity."""
    sizes, weights = (3, 2, 1), (1.0, 0.5, 2.0)
    v = [_random_matrix(rng, n) for n in sizes]
    spec = {
        "algebra": {"blocks": list(sizes), "trace_weights": list(weights)},
        "generator": {"kind": "lindblad",
                      "vs": [_element(v), _element([b.conj().T for b in v])]},
        "weight_element": _element(_random_weight(rng, sizes, weights)),
        "seed": _spec_seed(rng),
    }
    label = "-".join(str(n) for n in sizes)
    return {"name": f"lindblad-{label}", "size": sum(n * n for n in sizes),
            "spec": json.dumps(spec), "sizes": list(sizes),
            "vs": [v, [b.conj().T for b in v]]}


# -- large-forms --------------------------------------------------------------


def network_form_case(rng, n) -> dict:
    return {"name": f"network-form-N{n}", "kind": "network", "size": n**4,
            "c": random_conductances(rng, n)}


def amplified_form_case(rng, n=8, order=2) -> dict:
    d, size = n * order * order, n * order
    return {"name": f"amplified-network-N{n}-x{order}", "kind": "amplified",
            "size": d * d * size * size, "c": random_conductances(rng, n), "order": order}


def commutator_form_case(rng, n=6) -> dict:
    v = _random_matrix(rng, n)
    h = _random_hermitian(rng, n)
    return {"name": f"commutator-form-M{n}", "kind": "commutator", "size": n**6,
            "sizes": [n], "vs": [[v], [v.conj().T], [h]]}


# -- independent reference computations ----------------------------------------

RTOL = 1e-9


def _close(problems, what, got, want, rtol=RTOL):
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape}, expected {want.shape}")
        return
    err = float(np.abs(got - want).max(initial=0.0))
    if err > rtol * max(1.0, float(np.abs(want).max(initial=0.0))):
        problems.append(f"{what}: off by {err:.3e}")


def _decode(m) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def network_laplacian(c) -> np.ndarray:
    return np.diag(c.sum(axis=1)) - c


def lindblad_spectrum(sizes, vs) -> np.ndarray:
    """Eigenvalues of sum_v K_v^H K_v with K_v = v (x) I - I (x) v^T, block by
    block: the Laplacian of sum_v [v, a]* [v, b] over the orthonormal basis,
    whatever the trace weights."""
    eigs = []
    for b, n in enumerate(sizes):
        eye = np.eye(n)
        m = np.zeros((n * n, n * n), dtype=complex)
        for v in vs:
            k = np.kron(v[b], eye) - np.kron(eye, v[b].T)
            m += k.conj().T @ k
        eigs.append(np.linalg.eigvalsh(m))
    return np.sort(np.concatenate(eigs))


def spectral_triple_spectrum(sizes, d_op) -> np.ndarray:
    """Eigenvalues of P^H K^H K P with K = D (x) I - I (x) D^T and P the
    embedding of the block-diagonal matrix units: with unit trace weights the
    form tau(E([D, a]* [D, b])) is the Hilbert-Schmidt product of the
    commutators."""
    n = sum(sizes)
    eye = np.eye(n)
    k = np.kron(d_op, eye) - np.kron(eye, d_op.T)
    cols = []
    off = 0
    for nb in sizes:
        for r in range(nb):
            for s in range(nb):
                cols.append((off + r) * n + off + s)
        off += nb
    kp = k[:, cols]
    return np.linalg.eigvalsh(kp.conj().T @ kp)


def _kernel_dim(eigs) -> int:
    return int(np.sum(eigs <= 1e-8 * max(1.0, float(eigs.max()))))


def _verdicts(problems, code, report):
    failed = [c["check"] for c in report["checks"] if not c["passed"]]
    if code != 0 or failed:
        problems.append(f"exit code {code}, failed checks {failed}")


def check_network_report(case, code, report) -> list:
    """Problems found in one `nca all --json` report on a network spec."""
    problems = []
    _verdicts(problems, code, report)
    data = report["data"]
    c = case["c"]
    lap = network_laplacian(c)
    pinv = np.linalg.pinv(lap)
    diag = np.diag(pinv)
    rho = diag[:, None] + diag[None, :] - 2 * pinv
    _close(problems, "resistance", data["resistance"]["resistance"], rho)
    _close(problems, "energy^2", np.square(data["resistance"]["energy"]), rho)
    points = case["points"]
    dist = data["metric"]["distances"]
    got = [dist[i][j] ** 2 for i in range(3) for j in range(3) if i != j]
    want = [rho[points[i], points[j]] for i in range(3) for j in range(3) if i != j]
    _close(problems, "metric^2", got, want)
    keep = case["keep"]
    elim = [x for x in range(c.shape[0]) if x not in keep]
    kron = lap[np.ix_(keep, keep)] - lap[np.ix_(keep, elim)] @ np.linalg.solve(
        lap[np.ix_(elim, elim)], lap[np.ix_(elim, keep)]
    )
    _close(problems, "schur_complement", _decode(data["quotient"]["schur_complement"]), kron)
    _close(problems, "eigenvalues", data["laplacian"]["eigenvalues"], np.linalg.eigvalsh(lap))
    if data["dirac"]["dim_omega"] != int(np.count_nonzero(c > 0)):
        problems.append(f"dim_omega {data['dirac']['dim_omega']}, "
                        f"expected {int(np.count_nonzero(c > 0))}")
    return problems


def check_matrix_report(case, code, report) -> list:
    """Problems found in one `nca all --json` report on a matrix spec."""
    problems = []
    _verdicts(problems, code, report)
    lap_data = report["data"]["laplacian"]
    if case["vs"] is not None:
        want = lindblad_spectrum(case["sizes"], case["vs"])
    else:
        want = spectral_triple_spectrum(case["sizes"], case["D"])
    _close(problems, "eigenvalues", lap_data["eigenvalues"], want)
    if lap_data["kernel_dim"] != _kernel_dim(want):
        problems.append(f"kernel_dim {lap_data['kernel_dim']}, expected {_kernel_dim(want)}")
    return problems


def check_form_result(case, result) -> list:
    """Problems found in one large-forms pipeline result: the verdicts and
    the Laplacian matrix."""
    problems = []
    if not result["is_cdc"]:
        problems.append("is_cdc is false")
    lap = result["laplacian"]
    if case["kind"] == "network":
        want = network_laplacian(case["c"])
        _close(problems, "laplacian", lap, want)
        want = np.linalg.eigvalsh(want)
    else:
        if case["kind"] == "amplified":
            base = np.linalg.eigvalsh(network_laplacian(case["c"]))
            want = np.sort(np.repeat(base, case["order"] ** 2))
        else:
            want = lindblad_spectrum(case["sizes"], case["vs"])
        _close(problems, "spectrum", np.linalg.eigvalsh(lap), want)
    # the amplified form vanishes on every scalar matrix, so its kernel has
    # dimension order**2 and it is not connected
    if result["connected"] != (_kernel_dim(want) == 1):
        problems.append(f"connectedness is {result['connected']}, kernel "
                        f"dimension {_kernel_dim(want)}")
    return problems
