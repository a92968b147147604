"""The on-disk format of both stores, pinned byte for byte.

Existing store roots must keep opening and recovering unchanged, so the
relative paths a put creates, the pointer-file bytes and the journal
records' fields are fixed here for one known certificate and one known
summary payload.
"""

import json
import os

import pytest

from repro.cert import ConformanceCertificate
from repro.cert.model import sha256_text
from repro.store import CertificateStore, StoreIO, SummaryStore

CERT_HASH = "4632c593fe244028d0a6b7dd9c5b344c36e9ef3eaad9ce796394af570e798c67"
CERT_INDEX = "431273ad810b015c74c6c1540b035332f941917b7aaf20d1a4ce3b9d441f201a"
CERT_LINEAGE = "f5afa66cae34b59d9e1a72deaff48c46f578dbf96087bcb63ccd9e80ce844f62"
SUMMARY_HASH = "22f4963113ea5adfc405ac365c187c69c67dcb13a795e1bf22fad51cc3e6fe12"
SUMMARY_KEY = "5" * 64

BEGIN_FIELDS = {"bytes", "index", "lineage", "object", "op", "ts", "txn"}
COMMIT_FIELDS = {"op", "txn"}


def _certificate_put(root):
    cert = ConformanceCertificate(
        payload={
            "format": "format-pin",
            "spec_hash": "1" * 64,
            "source_hash": "2" * 64,
            "fingerprint": "3" * 64,
            "abstraction_hash": "4" * 64,
            "verdict": {"certified": True},
        }
    )
    store = CertificateStore(root, io=StoreIO(fsync=False))
    assert store.put(cert) == CERT_HASH
    return store, cert.text()


def _summary_put(root):
    payload = {"exit": "3", "masks": ["1", "3"], "space": "pin"}
    store = SummaryStore(root, io=StoreIO(fsync=False))
    assert store.put(SUMMARY_KEY, payload) == SUMMARY_HASH
    return store, '{"exit":"3","masks":["1","3"],"space":"pin"}'


CASES = {
    "certificate": (
        _certificate_put,
        f"objects/46/{CERT_HASH}.cert.json",
        {
            f"index/43/{CERT_INDEX}": CERT_HASH,
            f"lineage/f5/{CERT_LINEAGE}": CERT_HASH,
        },
        {"index": CERT_INDEX, "lineage": CERT_LINEAGE, "object": CERT_HASH},
    ),
    "summary": (
        _summary_put,
        f"objects/22/{SUMMARY_HASH}.summary.json",
        {f"index/55/{SUMMARY_KEY}": SUMMARY_HASH},
        {"index": SUMMARY_KEY, "lineage": None, "object": SUMMARY_HASH},
    ),
}


def _files(root):
    return {
        os.path.relpath(os.path.join(directory, name), root).replace(
            os.sep, "/"
        )
        for directory, _subdirs, names in os.walk(root)
        for name in names
    }


def _read(root, relative):
    with open(os.path.join(root, relative), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_one_put_writes_the_pinned_layout(kind, tmp_path):
    put, object_file, pointers, begin_values = CASES[kind]
    root = str(tmp_path)
    store, text = put(root)

    journal = "wal/journal.jsonl"
    assert _files(root) == {".lock", object_file, journal, *pointers}
    assert _read(root, object_file) == text
    assert sha256_text(text) == begin_values["object"]
    for pointer, target in pointers.items():
        assert _read(root, pointer) == target + "\n"

    begin, commit = [json.loads(line) for line in _read(root, journal).splitlines()]
    assert set(begin) == BEGIN_FIELDS and set(commit) == COMMIT_FIELDS
    assert begin["op"] == "begin" and commit["op"] == "commit"
    assert begin["txn"] == commit["txn"] == 1
    assert begin["bytes"] == len(text.encode("utf-8"))
    assert {field: begin[field] for field in begin_values} == begin_values

    # recovery over the pinned layout finds nothing to repair and only
    # empties the journal
    assert store.recover(verify_objects=True).clean
    assert _files(root) == {".lock", object_file, journal, *pointers}
    assert _read(root, journal) == ""
