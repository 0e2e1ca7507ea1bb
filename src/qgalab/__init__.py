"""Desk-scale simulation laboratory for quantum group actions.

Modules by role:

- ``states`` / ``circuits``: the statevector engine, dense unitary blocks and
  {T, CS} phase words.
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

__version__ = "0.1.0"
