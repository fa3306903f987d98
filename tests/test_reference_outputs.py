"""Every reference output of the package, pinned by the SHA-256 of its bytes.

``CLI_PINS`` holds ``omit-lab`` commands, each beside the digests of the
files it writes; ``stdout`` is what a command prints when it is given no
``--out``.  ``CONFIG_PINS`` holds the digests of ``emit_config`` texts.
The test produces every output, collects every file whose digest is not
the recorded one, and then fails once.  Its message lists each such file
under its command, with the recorded digest in a comment and the produced
one as a table entry, so a change that moves bytes on purpose updates the
table by pasting those entries, in the same change whose ``CHANGES.md``
line says why.

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
            "bd7eafd4ddcedfefb23ac83a740906063d59c5a4967c61850b81ca8c24a94029",
        "fig2_spectrum_two_mode.csv":
            "c1e228c85def3de2447e87184de49ad15170686cced60960fe789f756ccbc1a7",
    },
    "omit-lab figure fig3": {
        "fig3_unbroken.csv":
            "c1e228c85def3de2447e87184de49ad15170686cced60960fe789f756ccbc1a7",
        "fig3_broken.csv":
            "c75b515fcc0d6f56c0842950d0484ff20814e35ef309284ad879a8b40816e38e",
    },
    "omit-lab figure fig4": {
        "fig4_theta_0p0pi.csv":
            "e2772b9178a2484d335bce5e3a17d59834352a60271f88fddb37379e7b4f1600",
        "fig4_theta_0p5pi.csv":
            "39e65e642dfffa36d75f3018490d7ea4030f4e2b77ed76e5651780251f19e32a",
        "fig4_theta_1p0pi.csv":
            "aebf6fe34a18081011efabdf8419873ce20868631c6dbf76bfc7f8603ce47c87",
        "fig4_windows_vs_theta.csv":
            "85bd898d652cd9fa83f6e2e20901d5be339488bf4f0db3f51ff3f655321938cb",
    },
    "omit-lab figure fig5": {
        "fig5_theta_0p0pi.csv":
            "dd5cbe379a899a868542bcfde0e34247c7ef6204325356f32e89f1757e343482",
        "fig5_theta_1p0pi.csv":
            "c85f0e9480fda90f117d8c7137e2f72ef56f06c4da2b8c966ec86810d21f7880",
        "fig5_max_efficiency_vs_theta.csv":
            "2539e4170a53a12e1562bc06d942c96b47fba46ba6fd6772fad26d99c1d57b73",
    },
    "omit-lab figure fig6": {
        "fig6_spectrum_broken.csv":
            "39e65e642dfffa36d75f3018490d7ea4030f4e2b77ed76e5651780251f19e32a",
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
            "c75b515fcc0d6f56c0842950d0484ff20814e35ef309284ad879a8b40816e38e",
    },
    f"omit-lab spectrum --config {SPLIT} --format json": {
        "stdout":
            "c300d19266338d9d989db99bd2526b573fa571842aa50135f194e040f5693679",
    },
    f"omit-lab sweep --config {SPLIT} --param theta_pi_units "
    "--range 0:2:61 --lock-delta 1.0": {
        "manifest.json":
            "afe90c8631ba3b132bfdde0a4222d1542a43753d6f36470314c57d555f49f609",
    },
    f"omit-lab oracle --config {SPLIT} --omega-frac 0.95": {
        "stdout":
            "8b5470cbbe631338fb14b10321ed9fbe02fdbff41e1beeb3ce715caf0234ccbc",
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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digests(command: str, out: Path) -> dict[str, str]:
    """Run ``command`` in this process; the digest of each file it wrote."""
    argv = shlex.split(command)[1:]
    if argv[0] in ("figure", "sweep"):
        argv += ["--out-dir", str(out)]
    else:
        argv += ["--out", str(out / "stdout")]
    out.mkdir()
    assert cli.main(argv) == 0, command
    return {p.name: _digest(p.read_bytes()) for p in out.iterdir()}


def test_reference_outputs_keep_their_bytes(split_config, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    produced = {}
    for i, command in enumerate(CLI_PINS):
        produced[command] = _cli_digests(command, tmp_path / str(i))
    capsys.readouterr()  # the figure and sweep commands list their files
    produced["emit_config"] = {
        key: _digest(ol.emit_config(
            split_config if key == "split_config"
            else ol.standard_setup(key)).encode("utf-8"))
        for key in CONFIG_PINS}

    report = []
    for call, pins in (*CLI_PINS.items(), ("emit_config", CONFIG_PINS)):
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
