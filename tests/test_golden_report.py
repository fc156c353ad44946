"""Golden JSONL report bytes for every registered suite and variant.

Each entry is the SHA-256 of ``render_records`` for a 200-trial run at
master seed 42.  The same hash holds for the two other byte paths: the
records re-serialized one at a time from ``trial_record`` (the path an
output gate that hashes record by record takes) and the file that
``retroharness run --report`` writes.  ``gcd_x`` runs at the README's step cap of 10 000, where
its verdict counts match the default cap's.  A change that alters any
record byte (verdict, rendering, random stream or key order) shows here;
one that only restructures the code does not.
"""

import functools
import hashlib
import json

import pytest

from retroharness import cli
from retroharness.core import SuiteConfig, get_suite, list_suites, run_suite
from retroharness.report import render_records, trial_record

# The numpy the fourier hashes were made with, and the one CI pins: fourier
# records carry the last bits of numpy's exp and matmul.
GOLDEN_NUMPY = "2.4.6"

GOLDEN_SHA256 = {
    ("factorization", "correct"): "29f7054c6e4f20a858432915f712f9a6d59cbd2543ea570e9f55a69f7efa4250",
    ("factorization", "gcd_x"): "bbcd4b34026ecdc2f69a32eae91b2402f073026f513ac9adf8dc909ad93a3490",
    ("factorization_strict", "correct"): "53497b65b82d19c0eeb0bdd35dd31fad97d5ad14306a848e455aa176b19fea6d",
    ("factorization_strict", "gcd_x"): "7dfb381a8656902063806aefa967ba63983c683e0293a2627d451a762ec74003",
    ("fourier", "correct"): "961acd997ab7d899471c51b6fdde76b43f0d87a2d34ed07642936183b4b37d8d",
    ("fourier", "coef_minus_1j"): "726e933d1a32dcf17115780fa91d51425700990b6a2139600d56b30d53bc83ba",
    ("notation", "correct"): "25a5b224fcac2c32a652fa22f837cd7e01f302e21778f3aad09c00d0cff22b0d",
    ("notation", "operand_swap"): "6c7eadfdff937422a12c683c519285d347126fe33c7dbf9a45f595c932ccfc30",
    ("reciprocal", "correct"): "100d8c3cdc2f555ea23730db8e23c422225fb86888062c55c02dff55cd50db88",
    ("reciprocal", "off_by_eps"): "f2596a9ff56a4ac0bdede0dc58599bacfece4d46c4ebf8930a55671e7934c925",
    ("sine_backward", "correct"): "73a69092869bb2d733d99223217bcdaa44f651acb7d076a4fac50912a068965d",
    ("sine_backward", "taylor3"): "83ac1e625064e04c458d5a7c2d12e4f1ede581cb18b1eea56dcde67880a78c26",
    ("sine_forward", "correct"): "d93b11f928694ee0d67943901d81f7b83779646f7e2be890be789a3d7fca5322",
    ("sine_forward", "taylor3"): "009e392446d1748546faebc79196454bb9e773c651f655c0047abdbfb7070247",
    ("vm", "correct"): "b21a04c920aec358f9da1652ab2531dc7b68255fb2073235dfa5ba4a537d418e",
    ("vm", "swap_sub"): "59d459c7fa072dbcebdfd7cd981868b9601386933a715860e07ab8bbdd2fbe14",
}


def test_golden_table_covers_every_registered_pair():
    registered = {(s.name, v) for s in list_suites() for v in s.variants}
    assert registered == set(GOLDEN_SHA256)


def _extra(variant):
    return {"step_cap": 10_000} if variant == "gcd_x" else {}


@functools.cache
def _golden_run(suite_name, variant):
    suite = get_suite(suite_name)
    config = SuiteConfig(iterations=200, master_seed=42, variant_id=variant, **_extra(variant))
    return suite, run_suite(suite, config)[1]


def _check(text, suite_name, variant):
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[(suite_name, variant)], _mismatch_note(suite_name)


@pytest.mark.parametrize("suite_name,variant", sorted(GOLDEN_SHA256))
def test_report_bytes_match_golden_hash(suite_name, variant):
    suite, reports = _golden_run(suite_name, variant)
    _check(render_records(reports, suite), suite_name, variant)


@pytest.mark.parametrize("suite_name,variant", sorted(GOLDEN_SHA256))
def test_trial_records_dump_to_golden_bytes(suite_name, variant):
    suite, reports = _golden_run(suite_name, variant)
    _check("".join(json.dumps(trial_record(r, suite)) + "\n" for r in reports), suite_name, variant)


@pytest.mark.parametrize("suite_name,variant", sorted(GOLDEN_SHA256))
def test_cli_report_file_matches_golden_hash(suite_name, variant, tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    argv = ["run", "--suite", suite_name, "--variant", variant, "--iterations", "200",
            "--seed", "42", "--report", str(path)]
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in _extra(variant).items()]
    cli.main(argv)
    _check(path.read_bytes().decode("utf-8"), suite_name, variant)


def _mismatch_note(suite_name):
    if suite_name != "fourier":
        return None
    import numpy

    return (
        f"ran with numpy {numpy.__version__}; the fourier hashes were made with "
        f"numpy {GOLDEN_NUMPY}, the version CI pins"
    )
