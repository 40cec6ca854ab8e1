"""Byte stability of the CLI's stdout on the shipped examples.

SHA-256 digests of what ``minrate``, ``compset`` (both alphas) and
``enumerate --verify`` print for every ``data/*.json`` in both models,
and of what ``enumerate --verify`` prints for generated sources of 7 to
10 users, past the shipped examples' 5.  Any change to a printed value,
certificate line or ordering shows up here.  The non-asymptotic model
refuses the generated rational tables, whose entropies are fractional,
and takes the same tables scaled by their D.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import random

import pytest

import soplan.cli as cli
from soplan import GroundSet, PacketSource, TableSource, dump_source
from tests.conftest import random_packet_source, random_rational_table, scaled_table

DATA = Path(__file__).resolve().parent.parent / "data"

COMMANDS = {
    "minrate": ["minrate"],
    "compset-exact": ["compset", "--alpha", "exact"],
    "compset-lower-bound": ["compset", "--alpha", "lower-bound"],
    "enumerate-verify": ["enumerate", "--verify"],
}

# (data file stem, --model, command) -> stdout sha256
GOLDENS = {
    ("cyclic_triple", "asymptotic", "minrate"): "14f9d22addaedd7379ccbe5a53657d51f7a1563335ecb807a901a47a1ea4cdc7",
    ("cyclic_triple", "asymptotic", "compset-exact"): "b42187ee648ae55325ec87318cc5fe5b52cff7239096169f7a40c9602e85ea7c",
    ("cyclic_triple", "asymptotic", "compset-lower-bound"): "727d0e69f439fdb0410374a79717efe48d0ea3602f9f79b5d4cd05d55775fe54",
    ("cyclic_triple", "asymptotic", "enumerate-verify"): "5b47e4f4520023c325c1e5c770a13f155058f7a167b692fe035ce9b8ad163db5",
    ("cyclic_triple", "non-asymptotic", "minrate"): "3a950c831e5a2ab0ad9e33c3ee9a21cbdbc45ce89a73a2120a47f0b5b0880f78",
    ("cyclic_triple", "non-asymptotic", "compset-exact"): "2ccd284f20d7ccc1f4be8764af3d328533855a90e4eb33a5c4d1b60766288468",
    ("cyclic_triple", "non-asymptotic", "compset-lower-bound"): "70cc7b590f9b1c63b9a1444ddaec090164c023e6a7c6ef886bde2a9777d518bc",
    ("cyclic_triple", "non-asymptotic", "enumerate-verify"): "81fb817322c80e6a1218b27e9995ece328d65ed3ca55443015d435611811f406",
    ("cyclic_triple_table", "asymptotic", "minrate"): "14f9d22addaedd7379ccbe5a53657d51f7a1563335ecb807a901a47a1ea4cdc7",
    ("cyclic_triple_table", "asymptotic", "compset-exact"): "b42187ee648ae55325ec87318cc5fe5b52cff7239096169f7a40c9602e85ea7c",
    ("cyclic_triple_table", "asymptotic", "compset-lower-bound"): "727d0e69f439fdb0410374a79717efe48d0ea3602f9f79b5d4cd05d55775fe54",
    ("cyclic_triple_table", "asymptotic", "enumerate-verify"): "5b47e4f4520023c325c1e5c770a13f155058f7a167b692fe035ce9b8ad163db5",
    ("cyclic_triple_table", "non-asymptotic", "minrate"): "3a950c831e5a2ab0ad9e33c3ee9a21cbdbc45ce89a73a2120a47f0b5b0880f78",
    ("cyclic_triple_table", "non-asymptotic", "compset-exact"): "2ccd284f20d7ccc1f4be8764af3d328533855a90e4eb33a5c4d1b60766288468",
    ("cyclic_triple_table", "non-asymptotic", "compset-lower-bound"): "70cc7b590f9b1c63b9a1444ddaec090164c023e6a7c6ef886bde2a9777d518bc",
    ("cyclic_triple_table", "non-asymptotic", "enumerate-verify"): "81fb817322c80e6a1218b27e9995ece328d65ed3ca55443015d435611811f406",
    ("demo_source", "asymptotic", "minrate"): "c9db9cd3a80473efa57a7fdd497991168b5ed19edd4c9b27f761f8e1757c9d5c",
    ("demo_source", "asymptotic", "compset-exact"): "2ba4ccb7b380e73b2ef3a9117f5c99d46ce92607a798451521abd97cde61d903",
    ("demo_source", "asymptotic", "compset-lower-bound"): "3568dc6aa128f585fb83507c3784e0824cd4e2f422bf35ad51f1c2d16495f20c",
    ("demo_source", "asymptotic", "enumerate-verify"): "595c2df5a383c3b474e165f87c3de0ff69070d73c3d92b6e43d2d181c2bcb5eb",
    ("demo_source", "non-asymptotic", "minrate"): "fc8fefd2dfa45015bb4d9253e4d7d7ded066c792807cadff9d0d8a5a65b767d0",
    ("demo_source", "non-asymptotic", "compset-exact"): "62886cddcdeda11df7865820efbfa9579a78f905fe0efe2e1ff22fd42ab88542",
    ("demo_source", "non-asymptotic", "compset-lower-bound"): "c472849a90c5b8b6e1297902e1de6005b7e8edb633bef1ac1384a9e94e72ceca",
    ("demo_source", "non-asymptotic", "enumerate-verify"): "46875e2f8e11ee3ecdb27859a0bcda2745943a0450ca2fdad330fca1285dfc6d",
    ("independent_triple", "asymptotic", "minrate"): "34da629be2a15fffa7f74ad07b4ea2a1e5928f0345d1bf68deb3a9cc1de082e7",
    ("independent_triple", "asymptotic", "compset-exact"): "65ac5e2099fc7286c7712d2b4e5c16fb826f46a50f796a022bf2f8238232b6b0",
    ("independent_triple", "asymptotic", "compset-lower-bound"): "77e686cfe57bebd9115b6a83457d6d2d9c4fb1084b4cd696e8e4d3cb3dd2f96c",
    ("independent_triple", "asymptotic", "enumerate-verify"): "fefbaf8664b551a1dad13c818c44ae3b0aa9fa4fba6588b0b9c247735b01a144",
    ("independent_triple", "non-asymptotic", "minrate"): "02ad75a8cb85909de65777f326dabd7f0ca4fce67e01f235759ef31577c039e5",
    ("independent_triple", "non-asymptotic", "compset-exact"): "b274c5a56cc1246b48c66576166b5b06faf46c78865ac27de0ce618f8e4121a3",
    ("independent_triple", "non-asymptotic", "compset-lower-bound"): "638025e04908437b67f3a5eff24e00a099e09652813b2021e91d13e0262a8d9a",
    ("independent_triple", "non-asymptotic", "enumerate-verify"): "81fb817322c80e6a1218b27e9995ece328d65ed3ca55443015d435611811f406",
}


def test_goldens_cover_every_example():
    stems = {path.stem for path in DATA.glob("*.json")}
    assert {stem for stem, _, _ in GOLDENS} == stems
    assert len(GOLDENS) == len(stems) * 2 * len(COMMANDS)


@pytest.mark.parametrize("stem,model,command", sorted(GOLDENS))
def test_stdout_digest(stem, model, command):
    name, *flags = COMMANDS[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([name, str(DATA / f"{stem}.json"), *flags, "--model", model])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDENS[stem, model, command]


GENERATORS = {
    "rational": random_rational_table,
    "scaled": lambda rng, n, packets: scaled_table(random_rational_table(rng, n, packets)),
    "packet": random_packet_source,
}

# (generator, n, --model) -> sha256 of ``enumerate --verify`` stdout on
# GENERATORS[generator](random.Random(n), n, 2 * n), or None where the
# command must exit 2 and print nothing
GENERATED_GOLDENS = {
    ("rational", 7, "asymptotic"): "88b49f5188f8b17de3a23f6d3f5df67f6377b28b71f79f5683e14cd196abd42c",
    ("rational", 7, "non-asymptotic"): None,
    ("rational", 8, "asymptotic"): "70cbbca4f708eac79c208a2bb372a92f005d8a96643b135ddcf23b473f89e47c",
    ("rational", 8, "non-asymptotic"): None,
    ("rational", 9, "asymptotic"): "8ef4e97b7651bc00cfc9ef6b215a375d9a7c2760441f005ab113b2cf38e60c00",
    ("rational", 9, "non-asymptotic"): None,
    ("scaled", 7, "non-asymptotic"): "051c7d4f1ac3daa80fafb50cc18c24a64b95ec7ed70ba9bbfa8832b1caa59c6a",
    ("scaled", 8, "non-asymptotic"): "ad6ddd8c704f543f1a8dd0a126aaaf847e46d68bed979e672221a43e442a85e1",
    ("scaled", 9, "non-asymptotic"): "db8d1c7a02847f413fe87cc1fbba9cf595253c7f409156aa060e4bba6fc7b6b5",
    ("packet", 9, "asymptotic"): "4f352e474252f66072d5d83a8304b0998a8c6089a1580a417f6300c2bc23ef75",
    ("packet", 9, "non-asymptotic"): "66ba40849d3d6f78200d3527604a4d4eab613f7e0dca79429ad2a791318a331a",
    ("packet", 10, "asymptotic"): "e1dc21cc9c82205c46114bb2380dda676c28b0fa4fac1d5db47fdedb46a541b8",
    ("packet", 10, "non-asymptotic"): "f558be4cbd26de81dca9e5fec926531d052947f3f2a27ad33a6aa9ecaa430ea6",
}


@pytest.mark.parametrize("kind,n,model", sorted(GENERATED_GOLDENS))
def test_generated_enumerate_digest(kind, n, model, tmp_path, capsys):
    path = tmp_path / f"{kind}{n}.json"
    dump_source(GENERATORS[kind](random.Random(n), n, 2 * n), path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["enumerate", str(path), "--verify", "--model", model])
    want = GENERATED_GOLDENS[kind, n, model]
    if want is None:
        assert (code, out.getvalue()) == (2, "")
        assert "needs integer entropies" in capsys.readouterr().err
        return
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want


def labelled(source, prefix: str):
    """``source`` with its users renamed ``prefix + str(label)``."""
    labels = tuple(f"{prefix}{label}" for label in source.ground.labels)
    if isinstance(source, PacketSource):
        possession = {f"{prefix}{label}": held for label, held in source.possession.items()}
        return PacketSource(GroundSet(labels), possession)
    return TableSource._from_ints(GroundSet(labels), list(source.entropies), source.denominator)


# (generator, n, --model) -> sha256 of ``enumerate --verify --order ...``
# stdout on GENERATORS[generator](random.Random(n), n, 2 * n) with its
# users renamed u1, u2, ...: string labels, in an order not the file's
ORDERED_GOLDENS = {
    ("packet", 8, "non-asymptotic"): "54420aa77d566f41e5f998e9f6a51a238ead1243be35eada3b1441b1841afed8",
    ("rational", 7, "asymptotic"): "8c44d424a594b8f83dd8c7cace9041178c1cdd4ee64e12ffcaf71ab2d21a8c35",
}


@pytest.mark.parametrize("kind,n,model", sorted(ORDERED_GOLDENS))
def test_ordered_string_label_enumerate_digest(kind, n, model, tmp_path):
    path = tmp_path / f"{kind}{n}.json"
    dump_source(labelled(GENERATORS[kind](random.Random(n), n, 2 * n), "u"), path)
    order = ",".join(f"u{k}" for k in random.Random(n).sample(range(1, n + 1), n))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["enumerate", str(path), "--verify", "--model", model, "--order", order])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ORDERED_GOLDENS[kind, n, model]
