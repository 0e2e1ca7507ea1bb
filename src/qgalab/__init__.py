"""Desk-scale simulation laboratory for quantum group actions.

Subpackages by role:

- ``states`` / ``circuits``: the statevector engine and gate model.
- ``qga``: classical descriptions of group-element unitaries and the three
  candidate families, plus exact reference families.
- ``prfsg``: the Naor-Reingold-style pseudorandom state generator, its query
  oracles, and the state-based MAC.
- ``primitives``: one-wayness/pseudorandomness wrappers, private money, and
  the one-bit and multi-bit encryption schemes.
- ``distributions`` / ``games``: assumption-game sample shapes and the
  Monte-Carlo security-game harness.
- ``ega``: classical effective group actions, the exhaustively checkable
  reference world.
- ``cli``: the experiment runner.
"""

from .circuits import Circuit, Gate, run_circuit, sample_haar_unitary
from .distributions import DistributionId, gen_distribution, sample_shape
from .ega import (
    ClassicalDistributionId,
    ClassicalEga,
    NrPrfKey,
    check_orbit_uniformity,
    check_properties,
    gen_classical_distribution,
    instantiate_exp_action,
    nr_prf,
    nr_prf_keygen,
)
from .games import (
    GameResult,
    attack_iqp_fixed_point,
    game_report,
    run_distinguishing_game,
    run_ow_game,
    run_prfsg_game,
    run_uc_game,
    run_ucfsg_game,
    run_up_game,
    run_upsg_game,
    standard_prfsg_factory,
    wilson_interval,
)
from .gf2poly import SparsePolyF2, sample_sparse_poly
from .prfsg import (
    GameOracle,
    HybridOracle,
    IdealOracle,
    PrfsgKey,
    RealOracle,
    StateOracle,
    keygen,
    mac_tag,
    mac_verify,
    open_oracle,
    state_gen,
)
from .primitives import (
    ActionKey,
    Banknote,
    Ciphertext1,
    SkeKey1,
    SkeKeyMulti,
    money_keygen,
    money_mint,
    money_verify,
    owsg_keygen,
    owsg_state_gen,
    owsg_verify,
    ske1_dec,
    ske1_enc,
    ske1_keygen,
    ske_multi_dec,
    ske_multi_enc,
    ske_multi_keygen,
)
from .qga import (
    QgaDescription,
    QgaInstance,
    StateDescription,
    apply_qga,
    haar_unitary_qga,
    identity_qga,
    iqp_circuit_qga,
    iqp_poly_qga,
    random_circuit_qga,
)
from .rng import stream
from .states import (
    StateVector,
    basis_state,
    inner_product,
    plus_state,
    projection_prob,
    sample_haar_state,
    swap_test_accept_prob,
    tensor,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
