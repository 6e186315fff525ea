"""The seeded verify suite: pinned bytes and the LAPACK calls it makes."""

import numpy as np
import pytest

from livsic import colligation, verify

# max_residual.hex() of every check of run_verification(seed, n_systems=10), in
# order; any change to an evaluation path the suite reaches shows here
PINNED = {
    0: [
        "0x1.319c88764d194p-53", "0x1.81dc4b274fb0cp-52", "0x1.a3a249abd140dp-52",
        "0x1.04760c95db310p-51", "0x1.82fd05f129838p-52", "0x1.75cc301baa9b6p-51",
        "0x1.0031cb29a59fap-52", "0x1.5686d4c8f67fap-51", "0x1.17cd9b750c8f0p-50",
        "0x1.8000000000000p-52", "0x1.0800000000000p-53", "0x1.61cf0d1761b51p-50",
        "0x1.fc9c2e7f479cfp-51"],
    1: [
        "0x1.2ed11ad028713p-53", "0x1.465655f122ff6p-51", "0x1.a9fd7b09c489cp-52",
        "0x1.f34d1fb2b87d4p-52", "0x1.a1379938cadcap-52", "0x1.1bc317c739a5dp-50",
        "0x1.cd82b446159f3p-52", "0x1.f5889d42bbd35p-51", "0x1.477f8250d9c3bp-51",
        "0x1.0000000000000p-51", "0x1.0000000000000p-53", "0x1.ad22115fc47bap-51",
        "0x1.a583e3a4483e6p-51"],
    2: [
        "0x1.cd3ef3a97f0edp-54", "0x1.56208f6735330p-51", "0x1.c32a705e55602p-52",
        "0x1.b2e6eec4c2e55p-52", "0x1.880bb0fca36e4p-52", "0x1.4f619324f515bp-51",
        "0x1.21c5b70d9f824p-51", "0x1.24691a46428eap-51", "0x1.0e4a1341035e9p-51",
        "0x1.8000000000000p-52", "0x1.8000000000000p-54", "0x1.a1c70a7f8e740p-52",
        "0x1.f69b18ee5b505p-51"],
    3: [
        "0x1.1e448ca717a48p-53", "0x1.acc8048a10ca4p-52", "0x1.1e3779b97f4a8p-52",
        "0x1.db1d44f3344dep-52", "0x1.1e3779b97f4a8p-52", "0x1.0f2bd3cf70f43p-51",
        "0x1.459d9ea589ae2p-52", "0x1.129330e1ec7cep-51", "0x1.f5153acdf1dffp-52",
        "0x1.8000000000000p-52", "0x1.0000000000000p-53", "0x1.0000000000000p-52",
        "0x1.f3eb9448a1bb9p-50"],
    4: [
        "0x1.53e31915112f1p-54", "0x1.bdd5e79e7b772p-52", "0x1.39097d6468b90p-52",
        "0x1.eedf1c50f0afdp-52", "0x1.558fb08200c61p-52", "0x1.6de4a2be9f30bp-51",
        "0x1.efd89bd46d58ap-52", "0x1.94c583ada5b53p-51", "0x1.58dfadf0179c7p-50",
        "0x1.0000000000000p-51", "0x1.0000000000000p-53", "0x1.800a8c4c88db2p-52",
        "0x1.fdd6a527e30b3p-51"],
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_max_residuals_keep_their_bytes(seed):
    results = verify.run_verification(seed=seed, n_systems=10)
    assert [r.max_residual.hex() for r in results] == PINNED[seed]
    assert all(r.passed for r in results)


def test_resolvent_points_share_one_solve(monkeypatch):
    solve, calls = np.linalg.solve, []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    n = 10
    verify.run_verification(seed=3, n_systems=n)
    # one stacked solve per order (1x1, 2x2) and operator (T, Re T), whatever n is
    assert len(calls) == 4


@pytest.mark.parametrize("forced, svd_calls, slices", [(False, 1, 12), (True, 2, 130)])
def test_svd_gate_traffic(monkeypatch, forced, svd_calls, slices):
    # the gate of colligation._needs_svd skips 118 of the 130 SVD slices the
    # suite would take on its 2x2 systems (one stack each for T and Re T when
    # forced; Re T needs none otherwise), and the solves stay the same
    svd, solve, stacks, solves = np.linalg.svd, np.linalg.solve, [], []

    def counting_svd(a, *args, **kwargs):
        stacks.append(a.shape[0])
        return svd(a, *args, **kwargs)

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    if forced:
        monkeypatch.setattr(colligation, "_needs_svd", lambda *args: True)
    verify.run_verification(seed=3, n_systems=10)
    assert (len(stacks), sum(stacks), len(solves)) == (svd_calls, slices, 4)


@pytest.mark.parametrize("seed", [0, 42, 101])
def test_uniform_draws_are_generator_uniforms(seed):
    # verify's scalar draws take numpy's own formula: the bytes of Generator.uniform
    # over the suite's ranges, and the stream left where it leaves it
    ours, numpy_ = np.random.default_rng(seed), np.random.default_rng(seed)
    for lo, hi in [(-2.0, 2.0), (0.1, 2.5), (-3.0, 3.0), (0.2, 2.5), (0.05, 0.95)] * 2000:
        got = verify._uniform(ours, lo, hi)
        assert type(got) is float and got.hex() == numpy_.uniform(lo, hi).hex(), (lo, hi)
    assert ours.bit_generator.state == numpy_.bit_generator.state
