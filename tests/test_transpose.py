"""The bit-matrix transpose that builds a lattice's down-sets, M*'s columns
and the point valuations.

``lattice._transpose`` must equal a naive per-bit loop on every matrix,
and the model engine's ``(models, cols)`` and every field of
``verify_soundness`` must keep the digests taken while both were still built
bit by bit: on the builtins, the benchmark's scaling families and the
octagon export at C = 4.
"""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abslog.lattice import _transpose
from abslog.proofengine import engine_for, verify_soundness

from conftest import BUILTIN_NAMES
from test_model_engine import _abstraction, system
from test_replay_masks import SCALING


def naive_transpose(rows, width):
    cols = [0] * width
    for j, r in enumerate(rows):
        for i in range(width):
            if r >> i & 1:
                cols[i] |= 1 << j
    return cols


@st.composite
def matrices(draw):
    width = draw(st.integers(1, 80))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=40))
    return rows, width


@settings(max_examples=200, deadline=None)
@given(matrices())
@example(([5], 3))                               # one row
@example(([1, 0, 1, 1], 1))                      # width 1
@example(([0, 0, 0], 7))                         # all-zero rows
@example(([(1 << 9) - 1] * 4, 9))                # all-one rows
@example(([1 << 63, 1 << 63 | 1, 1 << 2], 64))   # the top bit set
def test_transpose_equals_the_per_bit_loop(case):
    rows, width = case
    assert _transpose(rows, width) == naive_transpose(rows, width)


# sha256 of repr((models, tuple(cols))) and of the soundness fields, taken
# when both the columns and the valuations were set one bit at a time
DIGESTS = {
    "parity": ("6332db96aa476630a6023998d64db48640e9050874bb47f0c8130eee37b73efb",
               "c435e5996a27daa9886398130ab697df6f1bb17e0494e7eac562283727b13f11"),
    "sign": ("8e0c14e288ab3d6268fafe32df35314bfa539c9420bb6648b34f6dd41152a884",
             "b36dfe15d922fb2b5ac9d49b905e40afdc4cca567419059410d90a04502c2e20"),
    "interval": ("dce280796f59edc85bf40887d1c0fe265c57dd359530957a510ff357afd22022",
                 "ea850d5d6cc5fd363f26910dc1c2737a342fcc8aa5aa6d9158e1fb7811677ba8"),
    "diamond": ("6332db96aa476630a6023998d64db48640e9050874bb47f0c8130eee37b73efb",
                "a961aa5ce43ed6e02acd296fec822eee5a09eb5caaa30cc4ba26b5bd843951d1"),
    "threechain": ("f02b2367ad87be9cbed58268c00ab7bb24a4a72771b19d584b0113f8cf72957f",
                   "44a7673f4bf7297079c7122d4ccaa1b69c674ebc76a9c9c6abad8ae413f5c2cc"),
    "m3": ("8e0c14e288ab3d6268fafe32df35314bfa539c9420bb6648b34f6dd41152a884",
           "04e52fd8411c8c9300df36ae2ba116f06f269516ed6e10a37e78ca609348a689"),
    "octagon-c1": ("11bb8258cdcd96b01b314695562cf35d766d6afa7b1f243343d8a3e8d0d71b19",
                   "e70fbc06392eb91583bc050de1783472a59ed0e637a70f5ce279746c29362742"),
    "chain-20": ("4b512d49e28a6471952b7d6a9cd3508e465ae30df4701ee29edcc31443af63e5",
                 "55332116daa803901f8b9746079a3387da23a7541346148af283c2e1e38da115"),
    "octagon-c2": ("9dca4bd51f919e37a8fd86c5a79c68d2853f354668149d32eeab805fe3db5868",
                   "f26ff4b55b58ebe2d3aa1b1876f6dae242cd731d934f364c62942279c8fb3459"),
    "octagon-c3": ("0ac971ec16528eef61a44c5ec2d4f58688993956e4ba6d6595196add25114af0",
                   "10b509329d4e168e7aeb775c318dab113fd1bbe0b9517b173fa53b2ee4b3f1ad"),
    "octagon-c4": ("4d2926a053e92a5d0a553397cf52783f10eac1731a2884aa75fd25db247f613e",
                   "9ac8487529f8e638be737539abf219c0b2146466c1df27317e3ec9ab6dc28216"),
    "boolean-3": ("f28161fbffabe8cac29fe8ab08bf556ecb66b753c8976d76192983f6292b93e3",
                  "a0a16889637e29ea7aebd5022682ca9eda224f583e121d1b3522e530fd16f333"),
    "parity-x-parity": ("be616cd82806abecad4da2d2964ac218fd2439da5607c614d5394e2e57a41402",
                        "49c28e1c3fd044e8557514390285db019723f5c57ae8c91f3fb83d7774b08005"),
}


def sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("name", BUILTIN_NAMES + SCALING + ("octagon-c4",))
def test_models_columns_and_soundness_keep_their_digests(name):
    abs_ = _abstraction(name)
    ps = system(abs_)
    n = len(abs_.lattice.elements)
    engine = engine_for(ps, n)
    s = verify_soundness(abs_, ps, n)
    fields = (s.ok, s.counterexample, s.generators_checked, s.cells_checked,
              s.replays_checked)
    assert (sha((engine.models, tuple(engine.cols))), sha(fields)) == DIGESTS[name]
