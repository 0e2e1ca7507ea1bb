"""Byte-level behaviour pins: SHA-256 of CLI reports and distribution samples.

A refactor must leave every hash below unchanged. The CLI list covers every
command, every game id and both report formats; the `-vs-` pairs together
touch all seventeen distribution ids. The random-guess distinguisher ignores
its sample, so the report hashes alone pin only how many draws a recipe
makes; the per-distribution sample hashes pin the states themselves and
which tuple slots share one object. The classical sample hashes pin one
seeded sample of each classical distribution on the exponentiation action,
and how many draws it took.

Run ``python tests/test_pinned_outputs.py`` to print the current hashes.
"""
import contextlib
import hashlib
import io

import pytest

from qgalab.cli import main
from qgalab.distributions import DistributionId, gen_distribution
from qgalab.ega import (
    ClassicalDistributionId,
    classical_distribution_to_json,
    gen_classical_distribution,
    instantiate_exp_action,
)
from qgalab.qga import iqp_poly_qga
from qgalab.rng import stream

CLI_RUNS = {
    "sample-random-circuit": ("sample", "--lambda", "3", "--candidate", "1", "--seed", "1"),
    "sample-iqp-circuit": ("sample", "--lambda", "3", "--candidate", "2", "--seed", "1"),
    "sample-iqp-sparse": ("sample", "--lambda", "3", "--candidate", "3", "--seed", "1"),
    "sample-haar-unitary": ("sample", "--lambda", "2", "--candidate", "haar-unitary"),
    "sample-identity": ("sample", "--lambda", "2", "--candidate", "identity"),
    "ow-omniscient": ("game", "--id", "ow", "--adversary", "omniscient", "--lambda", "2",
                      "--trials", "20"),
    "ow-identity": ("game", "--id", "ow", "--lambda", "2", "--trials", "20", "--seed", "3"),
    "ow-orthogonal-csv": ("game", "--id", "ow", "--adversary", "orthogonal", "--lambda", "2",
                          "--trials", "20", "--format", "csv"),
    "up-copy": ("game", "--id", "up", "--lambda", "2", "--trials", "30", "--seed", "4"),
    "up-omniscient": ("game", "--id", "up", "--adversary", "omniscient", "--lambda", "2",
                      "--trials", "20"),
    "up-haar-csv": ("game", "--id", "up", "--adversary", "haar", "--lambda", "3",
                    "--trials", "25", "--format", "csv"),
    "up-orthogonal": ("game", "--id", "up", "--adversary", "orthogonal", "--lambda", "2",
                      "--trials", "20", "--candidate", "1"),
    "uc-echo-junk": ("game", "--id", "uc", "--lambda", "2", "--t", "1", "--tprime", "3",
                     "--trials", "10"),
    "uc-haar-pad-csv": ("game", "--id", "uc", "--adversary", "haar-pad", "--lambda", "2",
                        "--t", "1", "--tprime", "3", "--trials", "15", "--format", "csv"),
    "uc-cloner": ("game", "--id", "uc", "--adversary", "cloner", "--lambda", "2", "--t", "1",
                  "--tprime", "2", "--trials", "10", "--candidate", "2"),
    "prfsg-repeat-query": ("game", "--id", "prfsg", "--lambda", "2", "--ell", "2",
                           "--trials", "20"),
    "prfsg-random-guess-csv": ("game", "--id", "prfsg", "--adversary", "random-guess",
                               "--lambda", "2", "--trials", "20", "--format", "csv"),
    "upsg-replay": ("game", "--id", "upsg", "--lambda", "2", "--ell", "2", "--trials", "20"),
    "upsg-haar-csv": ("game", "--id", "upsg", "--adversary", "haar", "--lambda", "2",
                      "--trials", "20", "--format", "csv"),
    "ucfsg-echo": ("game", "--id", "ucfsg", "--lambda", "2", "--t", "1", "--tprime", "3",
                   "--trials", "10"),
    "ucfsg-haar-pad-csv": ("game", "--id", "ucfsg", "--adversary", "haar-pad", "--lambda", "2",
                           "--t", "1", "--tprime", "3", "--trials", "15", "--format", "csv"),
    "attack-iqp-circuit": ("game", "--id", "attack-iqp-pru", "--candidate", "iqp-circuit",
                           "--lambda", "3", "--trials", "20"),
    "attack-iqp-sparse": ("game", "--id", "attack-iqp-pru", "--lambda", "3", "--trials", "20",
                          "--seed", "5"),
    "pr0-vs-pr1": ("game", "--id", "pr0-vs-pr1", "--lambda", "2", "--trials", "12"),
    "prq0-vs-prq1-csv": ("game", "--id", "prq0-vs-prq1", "--lambda", "2", "--trials", "12",
                         "--format", "csv"),
    "haarpr0-vs-haarpr1": ("game", "--id", "haarpr0-vs-haarpr1", "--lambda", "2",
                           "--trials", "12"),
    "haarprq0-vs-haarprq1": ("game", "--id", "haarprq0-vs-haarprq1", "--lambda", "2",
                             "--trials", "12", "--q", "3"),
    "ddh0-vs-ddh1": ("game", "--id", "ddh0-vs-ddh1", "--lambda", "2", "--trials", "12"),
    "haarddh0-vs-haarddh1-csv": ("game", "--id", "haarddh0-vs-haarddh1", "--lambda", "2",
                                 "--trials", "12", "--format", "csv"),
    "nr0-vs-nr1": ("game", "--id", "nr0-vs-nr1", "--lambda", "2", "--trials", "12"),
    "nrprime-vs-nrprime0": ("game", "--id", "nrprime-vs-nrprime0", "--lambda", "2",
                            "--trials", "12"),
    "nrprime1-vs-pr0": ("game", "--id", "nrprime1-vs-pr0", "--lambda", "2", "--trials", "12",
                        "--candidate", "1"),
    "ske-roundtrip": ("ske-roundtrip", "--lambda", "2", "--t", "2", "--ell", "2",
                      "--trials", "20"),
    "money-demo": ("money-demo", "--lambda", "2", "--trials", "20", "--seed", "8"),
    "prfsg-eval-iqp-sparse": ("prfsg-eval", "--lambda", "2", "--ell", "2", "--seed", "6"),
    "prfsg-eval-iqp-circuit": ("prfsg-eval", "--lambda", "3", "--ell", "2",
                               "--candidate", "iqp-circuit"),
    # above 8 qubits (butterfly Walsh-Hadamard) with exponent-form floats
    "prfsg-eval-iqp-circuit-large": ("prfsg-eval", "--candidate", "iqp-circuit", "--lambda", "10",
                                     "--ell", "6", "--seed", "0"),
    "prfsg-eval-iqp-sparse-large": ("prfsg-eval", "--candidate", "iqp-sparse", "--lambda", "9",
                                    "--ell", "3", "--seed", "2"),
    "ega-check": ("ega-check", "--trials", "200"),
    # ske-roundtrip runs its trials in blocks: each family's key path, the
    # butterfly, the one-row message and a run over several blocks
    "ske-roundtrip-iqp-circuit": ("ske-roundtrip", "--candidate", "iqp-circuit", "--lambda", "3",
                                  "--t", "2", "--ell", "2", "--trials", "20"),
    "ske-roundtrip-random-circuit": ("ske-roundtrip", "--candidate", "random-circuit",
                                     "--lambda", "2", "--trials", "20"),
    "ske-roundtrip-identity": ("ske-roundtrip", "--candidate", "identity", "--lambda", "2",
                               "--trials", "20"),
    "ske-roundtrip-butterfly": ("ske-roundtrip", "--lambda", "9", "--t", "2", "--ell", "2",
                                "--trials", "10"),
    "ske-roundtrip-one-row": ("ske-roundtrip", "--lambda", "2", "--t", "1", "--ell", "1",
                              "--trials", "60"),
    "ske-roundtrip-blocks": ("ske-roundtrip", "--lambda", "3", "--t", "8", "--ell", "4",
                             "--trials", "100"),
    # prfsg-eval writes each repeated amplitude and each {T, CS} letter once:
    # basis states (nearly every value repeats), states with no repeated value,
    # and a key of thousands of copies of a few letters
    "prfsg-eval-identity": ("prfsg-eval", "--candidate", "identity", "--lambda", "8",
                            "--ell", "3"),
    "prfsg-eval-random-circuit": ("prfsg-eval", "--candidate", "random-circuit",
                                  "--lambda", "10", "--ell", "4"),
    "prfsg-eval-iqp-circuit-deep": ("prfsg-eval", "--candidate", "iqp-circuit", "--lambda", "3",
                                    "--ell", "2", "--depth", "2000"),
}

CLI_SHA256 = {
    "sample-random-circuit": "b1492edb8f1df240b1f0201355efb58c01ba724faa8f5f3cbfbe1b6572e4c5f3",
    "sample-iqp-circuit": "493b79552b4a29398f78e3c90f8282f5ec420e497129f9f263a710431df9603d",
    "sample-iqp-sparse": "da44f2cfff01380c991ba3b23d4598427d89382c2e8d8bd16da619bc0e53bd42",
    "sample-haar-unitary": "877100705f3820d2c438cbf1db358d14b86e4c6a881c4d8cac00bbcec431d9a3",
    "sample-identity": "f91819eab18f209a9e460b731d0df346f753740be80a1a4ac769012c151acd07",
    "ow-omniscient": "a6255c8e5800b6935ebe68d5afdc5c398eddd769905e75d9857a0642a5f049e1",
    "ow-identity": "a2291aa627b1df59cbf7f61583e9a2e4eec42c40afdf53f95b10fb3ff2a0ce63",
    "ow-orthogonal-csv": "1dd828bf5cc6bc189d2f9404b045fddbce9beb52509234d9ef06fd0253519795",
    "up-copy": "e7686ce59dc328cf8c7b4772893ca65c09e9827addc302ffef70a95cd77ec0d4",
    "up-omniscient": "b10ee5eac97767142d85c9e8e006bc5a5a5f7a143b6f85f57ff3943415e51d3b",
    "up-haar-csv": "535f275be33ec28df63294bf065c2702ade97f201e0b50d255f59ce839e21e03",
    "up-orthogonal": "9811cca2fbdb43bd09b2cfca828fba11efb0576c872b805748895714f3283ea3",
    "uc-echo-junk": "d67935113c680cc636493ad41100c9c795cb7430a6f9371d1799bc639bf1b0e3",
    "uc-haar-pad-csv": "8cfc562eea1243de1ecd3c71c995ec82065782ad8f16a2bb3fb319ef5ad86e1b",
    "uc-cloner": "c8b27445a4754cad6ecfc9287be05f0f391c63d8977718744cdf5a34b434351d",
    "prfsg-repeat-query": "db260e6264c05a94ce960ceb6ede5c81df022d1f52d767e6037eee12e739b916",
    "prfsg-random-guess-csv": "d1150db595891cf7314020eb9fedec3c8eb75d2eb7d21f904b2df0a904f02694",
    "upsg-replay": "428a086c70f1d74262486faa2bd3ca111ec7dc3aec354ba98abf4efbf3e7f491",
    "upsg-haar-csv": "d79b561d1c9d812858e499b9aa8ffc1609db985b2e56bb5940d69edf620379cf",
    "ucfsg-echo": "52dd0be0a5ccd6d68c958b1246e89997da667d8c24975c2ecc6ac74bbc4d173f",
    "ucfsg-haar-pad-csv": "be00d38f935f0ce1b136615359b696f433d2514c6ec85992b9991a3aad4760d0",
    "attack-iqp-circuit": "38e7ed994e40fc493ffb2c90879e1636d2f7876383f46e22076687005c64792f",
    "attack-iqp-sparse": "efd37d7de0d4db85c5547d07112485ae969bed2f79b98473753715c01cef8da3",
    "pr0-vs-pr1": "647b1709c0e4e0d51aa7807dea59dca8b0eff28e8c6dcd43380b1da208fd39f5",
    "prq0-vs-prq1-csv": "8e8b4cc191e35b9cb15bdcf09f8e6b5412d5ad8477cb704b02f5c89f8bd25ed7",
    "haarpr0-vs-haarpr1": "d49768def9d660d6418b72e16c996372cd78fbc1f0e1aa95f52548815e061c08",
    "haarprq0-vs-haarprq1": "865f6ad3931a42fb9f77438465d7d40fa09aaafdfc06647ff5c0fd4a3beaf8ab",
    "ddh0-vs-ddh1": "28012fc50ff4444d2ce4a7ee86f6227e6370247326f9a02a5c35bf35dd8fd832",
    "haarddh0-vs-haarddh1-csv": "a893650079ff2c301557d0a42be1fd1e85fb9fdd9a126f3b430670e04edd7d42",
    "nr0-vs-nr1": "a1f1a32390b42d1b5a20d931a139f0e6b2ebda73a006122154669797ad55b7ff",
    "nrprime-vs-nrprime0": "7f92c5eb5aa558ab63e1634bc009a10a164a444b9e807493bb5610cf09bce4fb",
    "nrprime1-vs-pr0": "74da10906e65745e4fe3057786db08d274085899ccae1498145bbdcbd98a1d40",
    "ske-roundtrip": "e8fc26ac98cff020014eb8621656934bae1dbf85114ab30cf1979aa830cc044d",
    "money-demo": "57dda8f0fe2debcaa42e25fcdbd751549a619acaec38b2abedd60c591723eb09",
    "prfsg-eval-iqp-sparse": "fe453a12687a3e2727d8f95a0780ba530c972df80488c7bc8efb409bcb360674",
    "prfsg-eval-iqp-circuit": "04536301c36ad957da98a33c13bd72bdc0665c07484e3fe1ba2b3e82c6b34872",
    "prfsg-eval-iqp-circuit-large":
        "08461ab2cd5a80417967c699a83fa15810b7fbf7af2a8697905227f8e9136340",
    "prfsg-eval-iqp-sparse-large":
        "635d831272eee9930250d132a1f433be6fc4d964eaac25aaf61b41003aa1bd70",
    "ega-check": "40d95e609ce6eadd40ccda1a4ec3eebe26677ef7c3251ffeb7bbbdf15ce6bce6",
    "ske-roundtrip-iqp-circuit":
        "2ad033fda6b8ac33a721a686046f1afc671edde84b67a9e957a4a4252af391fc",
    "ske-roundtrip-random-circuit":
        "9bbb44cc102fd41b781566dd13311f04b63ceb042a6897141c9ca178a6332371",
    "ske-roundtrip-identity": "1c6d270a540d830a01445e03dad5a74f1888b99d9772035628e5fe8a4caf546b",
    "ske-roundtrip-butterfly": "26f0d953a80c1505199666b44b5fc5d8472d4f59516a5cb5c73e64d21d32adf4",
    "ske-roundtrip-one-row": "c52d20d0847f6c823d315e6bd70c1def283d0eccaa3986824d60fda5678978eb",
    "ske-roundtrip-blocks": "48d05426ba0a4cd510d966ee03400a141700a4e255c7ba2ec47a6d97fc565269",
    "prfsg-eval-identity": "3f6adeb5cbb94770954f10e60d4384d051aed6a3184b95cfc382e21e0c73820e",
    "prfsg-eval-random-circuit":
        "2262dd2e9f616faf3dce04d53f56727acc48e4e4493e19f07aed193caf0eba81",
    "prfsg-eval-iqp-circuit-deep":
        "c47c2508d3edebcf4b63bb1efa3c9534ed43f4c63b40639ec3be057975a8b04d",
}

SAMPLE_SHA256 = {
    "pr0": "32adf7fdd2ad6c4786eee83dc98e98bf52e84fcca31d747de2d3e6ae691fce74",
    "pr1": "1bbe60d63a84c4faf02327840a57243613bceec2f7e26eba2a415a02c77435ca",
    "prq0": "f23ac5c7f688bc6ebd674d66f51c24dcee20bafa8dfed41b892f75182139ac49",
    "prq1": "914ae274656cbb843ca170e5ceb9bb9ca4bca8a1ba980d838fd2d7d2d6d9209c",
    "haarpr0": "972de8a0492b8ee11d24a620fbdaa12f28d9dd7f58d32a134eddf314dd41bd44",
    "haarpr1": "424da791bc4471cafca98f9ab0d3f04e2a877fb4d7c83954c9752dcf64265f9a",
    "haarprq0": "c4d2676efff766a6da6a86636fc5f67d60a179d3a935fd47b39a362e16bd9f4e",
    "haarprq1": "092d9e9632313895445834bb1be4e774d401ac19b10112541526b9179c705042",
    "ddh0": "c425aba8749aa57eb20bc5163eb963c2205b7ad54682136876efd9e1a1dc4b38",
    "ddh1": "265e4d03165815e54b0fd182cc3311ced4b099ff696ace467e4d86d0d6abc401",
    "haarddh0": "733f01b17e4cd514d0fc3ff69b0b88bfba839d011136dbd8c6ab9433ae39c708",
    "haarddh1": "17ff7a97ed41a3451f016540ec9e04a603651aa59b19ab8da422e7ccb83a391b",
    "nr0": "6186deb80364c09cc9bb5b35e05eec4d4a535984ade220ffc5d035f00d238c3c",
    "nr1": "c519f0ee90f7bd7978e9a4c32b627f47de7c174fdc9e2a7daf3ea9d94cfaddff",
    "nrprime": "2402dd13ebcabe8f3bd696cf60d59bd5b4081dafbaf19cf1970634c4263ca06f",
    "nrprime0": "73b4ded1081a757f043a94bffc18cd567cc0803bd032bc89a9b19e509c9ad7dd",
    "nrprime1": "06bfaa446744104ec9a026c64664dbc65703efc811cc9a57e2bd855312bf170f",
}

CLASSICAL_SAMPLE_SHA256 = {
    "pr0": "c14a17cc6a91fd5e3b19f53727ba0a985995568098cbda4637d1304078cd8f1a",
    "pr1": "e69f977b9791c415f4709d85c7061c3a0a037406c7e9759de084a67ee09632fe",
    "wpr0": "89d1e5083a6993d4fc02f4b8af40be65b0bd23a3f89b91980a9f0e96d357c0fd",
    "wpr1": "00d721c2b1dba72074a6015a9a6b87e03d32ef912db583b3e1223a4e65f45960",
    "ddh0": "2b63f4a085c7205e9b2f9d2658d39d8d1967ad0ee641270d1db12c4a4a045d8b",
    "ddh1": "357786136cc04b9f998cdf43c74bb925b9f4f0ea8d1b787078e516460715c277",
    "nr0": "1d519fa3ebd0c91ead64ba676c8b239f34e9c09c3c8fade3cfaf5c793365dd21",
    "nr1": "69556cb8502e72614de88437895d2d6609519e957b4f996fffb702355d485db6",
}


def cli_report_sha256(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, err.getvalue()
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def sample_sha256(dist: str) -> str:
    """Amplitude bytes of one seeded sample, plus which slots share an object."""
    sample = gen_distribution(dist, iqp_poly_qga(3), t=2, q_samples=3,
                              rng=stream(0, "pinned-sample", dist))
    digest = hashlib.sha256()
    first_slot: dict[int, int] = {}
    for block in sample:
        digest.update(b"block")
        for tup in block:
            digest.update(b"copy" + str(first_slot.setdefault(id(tup), len(first_slot))).encode())
            for state in tup:
                slot = first_slot.setdefault(id(state), len(first_slot))
                digest.update(b"state" + str(slot).encode() + b":")
                digest.update(state.amplitudes.tobytes())
    return digest.hexdigest()


def classical_sample_sha256(dist: str) -> str:
    """One seeded sample as JSON, plus the generator's next draw, which pins
    how many draws the sample consumed."""
    rng = stream(0, "pinned-classical-sample", dist)
    sample = gen_classical_distribution(dist, instantiate_exp_action(), q_samples=3, rng=rng)
    text = classical_distribution_to_json(sample) + f" next={rng.integers(2**32)}"
    return hashlib.sha256(text.encode()).hexdigest()


def test_pins_cover_every_run_and_distribution():
    assert set(CLI_SHA256) == set(CLI_RUNS)
    assert set(SAMPLE_SHA256) == {d.value for d in DistributionId}
    pair_ids = {side for name in CLI_RUNS if "-vs-" in name
                for side in name.removesuffix("-csv").split("-vs-")}
    assert pair_ids == set(SAMPLE_SHA256)
    assert set(CLASSICAL_SAMPLE_SHA256) == {d.value for d in ClassicalDistributionId}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_report_bytes_are_pinned(name):
    assert cli_report_sha256(CLI_RUNS[name]) == CLI_SHA256[name]


@pytest.mark.parametrize("dist", sorted(d.value for d in DistributionId))
def test_distribution_sample_bytes_are_pinned(dist):
    assert sample_sha256(dist) == SAMPLE_SHA256[dist]


@pytest.mark.parametrize("dist", sorted(d.value for d in ClassicalDistributionId))
def test_classical_sample_bytes_are_pinned(dist):
    assert classical_sample_sha256(dist) == CLASSICAL_SAMPLE_SHA256[dist]


if __name__ == "__main__":
    print("CLI_SHA256 = {")
    for name in CLI_RUNS:
        print(f'    "{name}": "{cli_report_sha256(CLI_RUNS[name])}",')
    print("}\n\nSAMPLE_SHA256 = {")
    for dist in DistributionId:
        print(f'    "{dist.value}": "{sample_sha256(dist.value)}",')
    print("}\n\nCLASSICAL_SAMPLE_SHA256 = {")
    for dist in ClassicalDistributionId:
        print(f'    "{dist.value}": "{classical_sample_sha256(dist.value)}",')
    print("}")
