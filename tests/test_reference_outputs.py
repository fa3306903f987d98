"""Every reference output of the package, pinned by the SHA-256 of its bytes.

``CLI_PINS`` holds ``omit-lab`` commands, each beside the digests of the
files it writes; ``stdout`` is what a command prints when it is given no
``--out``.  ``CONFIG_PINS`` holds the digests of ``emit_config`` texts.
``ARRAY_PINS`` holds the digests of the bytes of the solver arrays of
benchmark chains (see its comment).  A figure or sweep command must print
exactly the paths it wrote.  Each test produces every output,
collects every one whose digest is not the recorded one, and then fails
once.  Its message lists each such output under its command or chain, with
the recorded digest in a comment and the produced one as a table entry, so
a change that moves bytes on purpose updates the table by pasting those
entries, in the same change whose ``CHANGES.md`` line says why.

The digests were recorded with the Python and numpy versions in
``RECORDED_WITH``; the message names both, because another version may
format a float differently.

The θ sweep's ``manifest.json`` holds the digest of each point file and
of ``bundle.json``, so pinning the manifest pins the bundle.  Only its CSV
form is pinned here: the JSON form costs about twice as much to write,
and its point files come from the same ``_spectrum_text(..., "json")`` as
the split spectrum's JSON, which is pinned.
"""

from __future__ import annotations

import hashlib
import json
import math
import shlex
import sys
from pathlib import Path

import numpy as np

import omit_lab as ol
from omit_lab import cli

ROOT = Path(__file__).resolve().parent.parent

RECORDED_WITH = {"python": "3.11.7", "numpy": "2.4.6"}

SPLIT = "demos/configs/split_window.cfg"

# Command (run from the repository root) -> {file it writes: SHA-256}.
CLI_PINS = {
    "omit-lab figure fig2": {
        "fig2_linewidth_vs_power.csv":
            "9ce46cc5552e736e029fcd2107c24f82dd516071ce4f7188a4f293adc66ebf24",
        "fig2_spectrum_standard.csv":
            "fca864780b152c10080d6f7cbd4613a976600c53e0bcf1ebcd1a4b333b76cda5",
        "fig2_spectrum_two_mode.csv":
            "00e8da499faa8c75b5c50d77c3e7a0b6c08c07ceff373dd7ea5e8e4a27dd7d23",
    },
    "omit-lab figure fig3": {
        "fig3_unbroken.csv":
            "00e8da499faa8c75b5c50d77c3e7a0b6c08c07ceff373dd7ea5e8e4a27dd7d23",
        "fig3_broken.csv":
            "d74ac8529837fef37e7830c99f6b73ec4a951c2146afb0d0a0defbd632a3ba62",
    },
    "omit-lab figure fig4": {
        "fig4_theta_0p0pi.csv":
            "48b8b64867dfcbcd2a2c8ff22f0c55b540968568c8fae77c7f6442c8154750a7",
        "fig4_theta_0p5pi.csv":
            "a4d099be845967e51aa4722b338fbee1e6233b9c8cfd32139d62bdbe0db68710",
        "fig4_theta_1p0pi.csv":
            "32787ab2f2bec61637e26f65f20dc1319e8970982498444ceac30e7d30bd1da8",
        "fig4_windows_vs_theta.csv":
            "85bd898d652cd9fa83f6e2e20901d5be339488bf4f0db3f51ff3f655321938cb",
    },
    "omit-lab figure fig5": {
        "fig5_theta_0p0pi.csv":
            "3814cff1bba64c8d38534725332021e489b2ae7adf820947abc52620d62737ad",
        "fig5_theta_1p0pi.csv":
            "bad246552b270b2d0760956a60fcb87b0834a6f182f1f69e7c768b8b4fef2cda",
        "fig5_max_efficiency_vs_theta.csv":
            "9049778c361f4769b1d8fb3a9c92aa0aa035759ecddd088dde835adb4b9c7a70",
    },
    "omit-lab figure fig6": {
        "fig6_spectrum_broken.csv":
            "a4d099be845967e51aa4722b338fbee1e6233b9c8cfd32139d62bdbe0db68710",
        "fig6_delay_vs_theta.csv":
            "b5413a7e3004771cc6d34d902c8f25e7ef7c674d99915adba22fe2f63ea838b0",
    },
    "omit-lab figure fig7": {
        "fig7_n3_broken.csv":
            "7d19178f16e8498c72b18755014ace6ed351a1b2fc530c1e72351786428c2ef6",
        "fig7_n4_broken.csv":
            "a495e62a7a1d814cc01101e3e25d1160a03b1ef211c33e97265b4022c5c7eb6e",
        "fig7_n5_broken.csv":
            "7e7257ad22e04d7036dec0ddfcb09330cda83f034fb728b3bd7e92868f4fb02c",
        "fig7_summary.csv":
            "85eb9eddb353e8c3eec85aa038906bba729652d52bf49f799aa9bb8fca58c3b2",
    },
    f"omit-lab spectrum --config {SPLIT}": {
        "stdout":
            "d74ac8529837fef37e7830c99f6b73ec4a951c2146afb0d0a0defbd632a3ba62",
    },
    f"omit-lab spectrum --config {SPLIT} --format json": {
        "stdout":
            "0fd70210e2c08a5043d8ab9573518688506d83dc3fef8ca9203ef806b1cc3fd0",
    },
    f"omit-lab sweep --config {SPLIT} --param theta_pi_units "
    "--range 0:2:61 --lock-delta 1.0": {
        "manifest.json":
            "476f97596a84d129fe2d1411cdb170ca2bd8522330eeb5fcd95ec5fc20468bb1",
    },
    f"omit-lab oracle --config {SPLIT} --omega-frac 0.95": {
        "stdout":
            "f486b083ab30f13c4f070058bac40870ddcf8954b438fd7336b056315989b4f7",
    },
}

# emit_config(config) -> SHA-256, for the conftest ``split_config`` and
# for ``standard_setup(n)``, keyed by n.
CONFIG_PINS = {
    "split_config":
        "1da5b63942df48858fd9b8491c092bd7e880d6a7772fa9a944ffe92208efdf3f",
    1:
        "0466e177b94af0080feeab76f2565b969ab35ba33a364a986ff44341383f7225",
    2:
        "2966804af5146030ca54aebef5d7e7b6028f2079fddd4d5e1194dff1b0f1e99a",
    3:
        "c29d4fd6629958217b7f7a29ff538129837415ad7fe71a8472dd569abd479f31",
    4:
        "8424fda3a93efab3b8e550f5fc13b51a292654b223a76e411419e41e9c7ef634",
    5:
        "08fbc50cebaa6f2e321d4d9397c7bef667ef1b596856c4f6ed12ec7361d5db63",
    6:
        "6a97d048a96057fb17aeaf616e41bd8218c8099d66eabd3206f914b37397be53",
    7:
        "d85f545524a2f2bb9cf43204ff286fb662b9f866bbcf524c6b24600dfa5acc50",
    8:
        "6e839a402a461170244250b94bd6cd6288a4e5556f8fc680bef9111dd958b95f",
}


# The arrays of ``standard_setup(n)`` ("dark", every link at eta = 0) and
# of ``standard_setup(n, **BROKEN)``, keyed "N=n dark" / "N=n broken", on
# the default K = 4001 grid of ``compute_spectrum``: the amplitudes of
# ``solve_first_order`` and of ``solve_second_order`` given that first
# order, ``t_p`` of ``compute_spectrum(include_second_order=False)`` and
# of ``transmission_via_normal_modes`` (the star basis; N >= 2).  A single
# mode has no link to break, so N = 1 appears once.
BROKEN = {"eta_frac": 0.05, "theta": math.pi / 2}
ARRAY_PINS = {
    "N=1 dark": {
        "A1-":
            "4f895367e1886f3272e0a545b9b9c51048794709236821f745b84b572ae30697",
        "conj(A1+)":
            "259d4163b5257070b70b671fa74fe926f724e995c1e0261bae5f27fc49e5688c",
        "B1-":
            "d9ad0aec172f408ad04a7ab7a286c3586e38abbdb946b0898c3f1ce380c0dda6",
        "conj(B1+)":
            "fde347c0f3dc5eb736356a33f2aff8dd8686a6e743e5b831d732cd9292894412",
        "A2-":
            "a2d6d86ffd773c62f22ed4486f9c2dbfb19fb1b363f04ce39dab1f2ca9ff51eb",
        "conj(A2+)":
            "627ec67c182f73eaa1846ec4c329503e4396fe3b246aac5eb0e2aebb61766304",
        "B2-":
            "826dd998d6857ac38e4f57490552f86ab16628c00d44ff84f223876305b2c7b9",
        "conj(B2+)":
            "de1d7075e4952ad541072985c119249e022c4199ded6b7494eb58d5073e8afc3",
        "spectrum t_p":
            "ba3a0cfb57518b5468d6f3eb5f012e311dffc357067e45ff980c295ff8dd8ae0",
    },
    "N=2 dark": {
        "A1-":
            "2221007b4377f48a417298ae8b79c5d7eb05f903f3135f6ef887769bc57d8c92",
        "conj(A1+)":
            "691b1ebf9c6e11741764b84eeb62246b8c79375c934743e44ebd58c3055b56c3",
        "B1-":
            "7f9568aa4b7235a0f9847d6f48f509a5229d1dd416e4e7715ea95daa28cda93d",
        "conj(B1+)":
            "fd37cf3a1e05f98b27395abc16f9f3101b214a122a5f8103bade9e9d9bbda60b",
        "A2-":
            "059ba16e9bd035e7174537872beffd7273cdc60e6b12389561b2f56f2ce368ac",
        "conj(A2+)":
            "523ef31c0e47474792b3d075ab02fd9f059a8ae8c45932d4f16c965d08fc3133",
        "B2-":
            "e18381773b6489fa45724dd487cef8ee1cbdee26c22f844b9fea7acd0e89b703",
        "conj(B2+)":
            "0fdebfb0dac5f98bc7bc2734f3878f307551fbeddebd807784a4da16ff460614",
        "spectrum t_p":
            "77aaef633ef5b52257be5daf2ee4831e18f684f88b38f6145719314e43daebe9",
        "star t_p":
            "ddb36efc29649b879b035ed61497a136f3af462bea0222c0f4e72727406ca550",
    },
    "N=2 broken": {
        "A1-":
            "691e4b21952e076afc8696b60914c0dd424f87e4cceeaadc14941fb88b30d227",
        "conj(A1+)":
            "7637ef6d501d097755cbe82f68bb19ffb88129744ec131bb3450fdd2173bca47",
        "B1-":
            "b9e03491960344cd9ef4f7ef3fbf3fe2c7b51eee2b5069a6c1d7e1a89188c9f9",
        "conj(B1+)":
            "9d71acc1e426e82c76e6bec69b503aa67707f55ae415451f067f416836099d8a",
        "A2-":
            "b6bf72d72acdfa99c57cef9ddb5d8466015293923d4b3582269b7f1887630921",
        "conj(A2+)":
            "28ed26dafca740793787530aba37fd79277f6f1da5cd41847ca5d3c94048cded",
        "B2-":
            "75d3a5cb0fb29127a7fe94a1b10d10b6fb4e23c9ed4cca491d847a4a20321230",
        "conj(B2+)":
            "e0fe4119a25b741d73e4e1606ff6f344b3ec6bedcc6ef91cd0ae79b11f5d01fb",
        "spectrum t_p":
            "7dad1b654ba41e62930c7755d4ea25d78225e6c035dd08555c041bc2ecb99c7e",
        "star t_p":
            "0db13f9c81ca33bb1a447b5054dae02f981236b1709bd80419fac2bb717e88dc",
    },
    "N=4 dark": {
        "A1-":
            "2f57f1dc807b41fa4179dde596a1e3ddf45b761eb26e858a0fc11e40c8138a89",
        "conj(A1+)":
            "32988f50d68024b06a2d752221e747b01ac8487fdc076dab771d6639146739dc",
        "B1-":
            "eaabab4a1d16520e7c8599496452c6994bd592ff4a2c5d5809e3c218910e4ebd",
        "conj(B1+)":
            "cf9b4de1d2133bdf348c07a87542551b47ad99b3c957610812cd73cde2912b12",
        "A2-":
            "11a8625f99781bb3633dd0c731bc8f139c02fcf6687723106aa9aca1cadcd4cf",
        "conj(A2+)":
            "eafd00113ad8f10d9534b29dff67ef94aeb757aa9787c1776b483a14c3bf6e8a",
        "B2-":
            "6688322154331928a11ce40413b7f1a34c6a5f5c1ecdd688f23f3880aad05ce6",
        "conj(B2+)":
            "514f1efab11a0c23a62197ed61674fdb36bd5871cd8f39933945a20f60bc3730",
        "spectrum t_p":
            "3fae663d1910c2d985c31c2ce020b8d5440c4b163f6e898eaece148178a59902",
        "star t_p":
            "99433b06fc847ef91debdaddeb9e03f922cf2fcea58044bdcce894ab9414cb0f",
    },
    "N=4 broken": {
        "A1-":
            "b6a9739b4d75a84236743b2917653436d3514e886919c0f41ab0313bc7c01984",
        "conj(A1+)":
            "5a336926fd97399bedea56f0977448e816ebd8e711e69881d9377cc14526c5d1",
        "B1-":
            "19cb4528f4583cc4422d0e52d8e1c8cfb375ea15d44818c234d0000419150b69",
        "conj(B1+)":
            "92894b919d308c2094bdc1c74d0203ead161db80907e35cc558a10e59efe8072",
        "A2-":
            "f48030b5fcd71506c06ffed93fffd58919c5f6245610fd3dfd49f76f257737f3",
        "conj(A2+)":
            "81eaeddc6c933b5eb657b0f9baa640c19b50d6352a9fc165250db2b6c3d09efe",
        "B2-":
            "95f6ba6ea394b280c4f07e3b4b52461f3a1d1bf87c8fa1208f9deee9cb1d2e78",
        "conj(B2+)":
            "bb724b3e59ad6c3dbe76b8c838b147b02e0b5325124c18e7a7e185d0b705feaa",
        "spectrum t_p":
            "b9386a7caf0d04b86e184737b43565d246ce3c587bcd38f1a7a976863bf4c24a",
        "star t_p":
            "01a863b3fee5cb2d7ecf901b592652c458e71011e94fcf8afa6e878dd8857441",
    },
    "N=8 dark": {
        "A1-":
            "006991e56449deacaf2857e3c4f1be93fe330e671a86b8ba781e9d60a35bca3d",
        "conj(A1+)":
            "31b6ce0be3722742a5e071116c0f41dbb2866ff90acf077261be098c4b596897",
        "B1-":
            "bc7e84b5733d411b11030b8dc8cf94510f9c1788121cc67fd7fee04bfa87af47",
        "conj(B1+)":
            "6308875de6e9e6b9c847220402e1bbadfb7de14fca3d988050d0616c34a39e38",
        "A2-":
            "6c96952be9a6c4385be9486b079450c8494e6e94ba5b970bae5888316f883b71",
        "conj(A2+)":
            "f8f6e295dc6c647983d6088a3ff7b2837eab4ea4a8c49314709af20bae608ac6",
        "B2-":
            "d0448c23c0500af41186bfaf4bf138f286f8d4b644ffd57ca5304ed438103eb3",
        "conj(B2+)":
            "9990ccb24873f50e8413c5e51e39502eb3110d77e130b5860a71bd2d327a5ae2",
        "spectrum t_p":
            "83b2799b3c87741df921cc034c8f381534962188801cd1d189b47f1d926aac12",
        "star t_p":
            "146b125ae9e6bc5add19068a8fa78e885f7b22928474c619dcaebe48e346c13d",
    },
    "N=8 broken": {
        "A1-":
            "fcfbc5d81cf2ac4e7eb8392186a8c19c1e20cec3b6ed8947b36b86458fb2b2f2",
        "conj(A1+)":
            "515b5d83964131a66248989656a638a1d09d318ee9f3ca30246813e61b0f3bc7",
        "B1-":
            "40d5959cd6762e61abc428f5aa25be47752706ec0780e437716b32231f4a9b53",
        "conj(B1+)":
            "29862e1c9739de01ade9f578a088201b1d321f46f48e991e817c42f4a3e4f06c",
        "A2-":
            "0dea675353ddc3fdc9debe7b71565db95564c0b9012a20e59f7acdc4ef0140a7",
        "conj(A2+)":
            "182f8734a2870459c1669f67a36be4c3ff61183d7afba6271be5e978250af845",
        "B2-":
            "e775bd9fd191fffe8da8154c32c1311c7e90556c196745bf06d47ef9f35d1f51",
        "conj(B2+)":
            "dd72ba93231555e548681654f9abedb1ba401a000df670d7cf8bed9c4eab8bb7",
        "spectrum t_p":
            "729bd3d21b7c21be99558d840bfd038942fb0671f7cc59c3e9adf2d17efeadb0",
        "star t_p":
            "b375d1a2f13e348cecfd7d2d2a6ad3a13612a145b2d4b29927226fc3b416d709",
    },
    "N=32 dark": {
        "A1-":
            "00df25fd1d3d26c72d2e9ed68c57c7caaaf99d8de6ce4b3fc9e476693078d8a6",
        "conj(A1+)":
            "a2956234a33f5885cb9a94711321e6a15a2d475cce909ce2a2720e4c8e8e9d4b",
        "B1-":
            "f768cd09544082a61805511ed1bd91080b085ac39a8eafac72a9aa159728fee5",
        "conj(B1+)":
            "fe3bf205e2c576f58e79231e5017d8e8f7906e5fca22961b7c4b544d1a85098a",
        "A2-":
            "58e996b139d2c5708905c24522a17c1206f1013c1f2a9fa29e4973d1699ed6ad",
        "conj(A2+)":
            "0536e04710bc3af56514cf2661ae2a6c18a10eb7eb3dbf517514eddc81dbefec",
        "B2-":
            "b858e7baef670b5775f7249624290ecab262f3ac4acf8ae7d1e937a54a49adbe",
        "conj(B2+)":
            "587cc10f9046229ca915171464abd57441ea215dfc964d9e3ac1ffcf83fe1251",
        "spectrum t_p":
            "e95ccbb6fc35fed21278dd87b24e73b79f75268c2ac4e4cd8b195b983cde8c48",
        "star t_p":
            "ad50789635ffc03bf37b3723326e0071d21fd2034f860700876dcce81e458a3a",
    },
    "N=32 broken": {
        "A1-":
            "614333b7dd66fe83f86e6c52b91ce48584c7c8963e25573bb98ddc96a2305b24",
        "conj(A1+)":
            "71415e7c05de466722dc73877ec616e7f526693cb7c91becebe61925f942c8d7",
        "B1-":
            "7c6e0c4e56290f3d16c120c32ae081aa695e291ff017cddf0db3375aa5e2e72b",
        "conj(B1+)":
            "99c4e4fb898dd318240c07f21268768d0d21a2d49ac6572698f8f325fb4ac27a",
        "A2-":
            "62b5563248a2a00cacd453dcf4119cb86bf42e5f6f64c17bc48aafa942f00e16",
        "conj(A2+)":
            "26f4710c44e1220a22cb515a624e2e2e6a13b52d4fc987cd93342566e6b1c56e",
        "B2-":
            "b5bbd8558d269a56492dbe3b54a4bcd3c06a44c1f4445e969857049a6a1169b9",
        "conj(B2+)":
            "0b6ce5b8b29f326d04d033ecfb4a104c0c522a676d81a5f07f51d114cdec96a8",
        "spectrum t_p":
            "fcd869bc2fa0a900f0cd3f824e68e634bdd0f83e06c2b1c37be12403e48e40cf",
        "star t_p":
            "ddb0209c7d8e8279a019688102210b881a611dd7e6ea7e03c936f0b1be59016e",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digests(command: str, out: Path, capsys) -> dict[str, str]:
    """Run ``command`` in this process; the digest of each file it wrote.

    A figure or sweep command prints exactly the paths it wrote; a command
    given ``--out`` prints nothing."""
    argv = shlex.split(command)[1:]
    lists_files = argv[0] in ("figure", "sweep")
    if lists_files:
        argv += ["--out-dir", str(out)]
    else:
        argv += ["--out", str(out / "stdout")]
    out.mkdir()
    assert cli.main(argv) == 0, command
    wrote = [str(p) for p in out.iterdir()] if lists_files else []
    assert sorted(capsys.readouterr().out.splitlines()) == sorted(wrote), \
        command
    return {p.name: _digest(p.read_bytes()) for p in out.iterdir()}


def test_reference_outputs_keep_their_bytes(split_config, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    # Sweeps are serial: the former worker-count variable is ignored.
    monkeypatch.setenv("OMIT_LAB_JOBS", "many")
    produced = {}
    for i, command in enumerate(CLI_PINS):
        produced[command] = _cli_digests(command, tmp_path / str(i), capsys)
    produced["emit_config"] = {
        key: _digest(ol.emit_config(
            split_config if key == "split_config"
            else ol.standard_setup(key)).encode("utf-8"))
        for key in CONFIG_PINS}

    _assert_pinned((*CLI_PINS.items(), ("emit_config", CONFIG_PINS)),
                   produced)


def _array_digests(n: int, chain: str) -> dict[str, str]:
    config = ol.standard_setup(n, **(BROKEN if chain == "broken" else {}))
    steady = ol.solve_steady_state(config)
    spectrum = ol.compute_spectrum(config, include_second_order=False,
                                   steady=steady)
    w = spectrum.omega
    first = ol.solve_first_order(config, steady, w)
    second = ol.solve_second_order(config, steady, w, first)
    arrays = {}
    for order, amp in ((1, first), (2, second)):
        arrays[f"A{order}-"] = amp.a_minus
        arrays[f"conj(A{order}+)"] = amp.a_plus_conj
        arrays[f"B{order}-"] = amp.b_minus
        arrays[f"conj(B{order}+)"] = amp.b_plus_conj
    arrays["spectrum t_p"] = spectrum.amplitude
    if n >= 2:
        arrays["star t_p"] = ol.transmission_via_normal_modes(
            config, steady, w)
    return {name: _digest(a.tobytes()) for name, a in arrays.items()}


def test_solver_arrays_keep_their_bytes():
    produced = {}
    for label in ARRAY_PINS:
        n, chain = label.removeprefix("N=").split()
        produced[label] = _array_digests(int(n), chain)
    _assert_pinned(ARRAY_PINS.items(), produced)


def _assert_pinned(tables, produced) -> None:
    """Fail once, listing every output whose digest is not the pinned one."""
    report = []
    for call, pins in tables:
        lines = []
        for name, recorded in pins.items():
            digest = produced[call].get(name, "not written")
            if digest != recorded:
                lines += [f"        # recorded {json.dumps(recorded)}",
                          f"        {json.dumps(name)}:",
                          f"            {json.dumps(digest)},"]
        if lines:
            report += [f"    {call}:", *lines]
    assert not report, "\n".join([
        "outputs whose bytes differ from the pinned table:", *report,
        f"recorded with Python {RECORDED_WITH['python']}, numpy "
        f"{RECORDED_WITH['numpy']}; produced with Python "
        f"{sys.version.split()[0]}, numpy {np.__version__}"])
