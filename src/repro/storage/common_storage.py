"""The common sp-system storage.

"The only requirement of a new machine is to have access to the common
sp-system storage where the tests from the experiments as well as the test
results are stored..."  The :class:`CommonStorage` models that shared area as
a set of namespaces (tests, results, tarballs, recipes, reports) holding
JSON-serialisable documents.  It works purely in memory by default and can
optionally persist itself to a directory, which the examples use to leave
inspectable output behind.  A persist writes only the files whose bytes are
new or changed, each through a temp file renamed over its target, so a
process killed mid-persist leaves every file with its old or its new bytes.

A storage is *bound* to the directory it last matched: the one it was
loaded from, or the one its last completed persist wrote.  Each namespace
records the keys put or deleted since then (its dirty keys), so a persist
back into the bound directory serialises only the documents of dirty keys
and of keys whose file is missing, and repeated persists of a growing
storage cost O(changed documents), not O(storage).  The flip side: a file
edited behind the storage's back stays as edited until its document is
put again, while a deleted one is written again by the next persist.
"""

from __future__ import annotations

import json
import os
import secrets
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro._common import StorageError, ensure_identifier


#: Namespaces every sp-system installation provides.
DEFAULT_NAMESPACES = ("tests", "results", "tarballs", "recipes", "reports", "images")

#: Namespaces persisted with *mirror* semantics: their on-disk directory is
#: made to match the in-memory namespace exactly, deleting files of documents
#: that no longer exist.  The build cache needs this — a persist deletes the
#: documents of evicted entries, and a stale file would resurrect them on the
#: next load.  Every other namespace keeps the historical accumulate-only
#: behaviour (run documents of earlier campaigns survive a smaller re-run).
#: Owners register themselves via :func:`register_mirrored_namespace` (e.g.
#: the build cache registers its ``buildcache`` namespace), so the constant
#: never drifts from the owner's namespace name.
MIRRORED_NAMESPACES = set()

#: Journal-backed namespaces: name -> record key prefix.  Their journal
#: records are batched into *segment files* on disk (see
#: :meth:`CommonStorage.persist`), so persisting a journal of N records
#: writes O(N / JOURNAL_SEGMENT_RECORDS) files instead of one file per
#: record.  Registration implies mirror semantics.
JOURNAL_NAMESPACE_PREFIXES: Dict[str, str] = {}

#: Journal records batched into one on-disk segment file.
JOURNAL_SEGMENT_RECORDS = 64

#: Top-level sentinel key marking an on-disk journal segment document; the
#: value maps record keys to their documents.  :meth:`CommonStorage.load`
#: recognises segments by this shape and explodes them back into individual
#: records, so the in-memory representation never changes.
_SEGMENT_SENTINEL = "sp-journal-segment"

#: Suffix of the temp files :func:`_replace_file` renames into place.  It
#: ends in neither ``.json`` nor ``.html``, so :meth:`CommonStorage.load`
#: and the mirror cleanup ignore a temp file a killed process left behind.
_TEMP_SUFFIX = ".tmp"


def register_mirrored_namespace(name: str) -> str:
    """Declare that :meth:`CommonStorage.persist` mirrors namespace *name*.

    Returns *name*, so an owner can register its namespace constant inline.
    """
    MIRRORED_NAMESPACES.add(ensure_identifier(name, "namespace name"))
    return name


def register_journal_namespace(name: str, record_prefix: str = "journal_") -> str:
    """Declare *name* journal-backed with records under *record_prefix*.

    Beyond the mirror semantics of :func:`register_mirrored_namespace`, the
    namespace's journal records are persisted as batched segment files:
    ``<record_prefix>segment_<first-sequence>.json`` documents each holding
    up to :data:`JOURNAL_SEGMENT_RECORDS` records.  Returns *name*.
    """
    register_mirrored_namespace(name)
    JOURNAL_NAMESPACE_PREFIXES[name] = record_prefix
    return name


def _is_journal_record_key(key: str, record_prefix: str) -> bool:
    """True for ``<prefix><digits>`` keys — the journal's record documents."""
    return key.startswith(record_prefix) and key[len(record_prefix):].isdigit()


class StorageNamespace:
    """One namespace of the common storage (a directory-like key space)."""

    def __init__(self, name: str) -> None:
        self.name = ensure_identifier(name, "namespace name")
        self._documents: Dict[str, object] = {}
        #: Keys put or deleted since the storage last matched its bound
        #: directory; :meth:`CommonStorage.persist` compares only their files
        #: (and missing ones) there.  A document mutated in place without a
        #: put is not dirty, so its change would never reach the disk.
        self._dirty: Set[str] = set()

    def put(self, key: str, document: object, overwrite: bool = True) -> None:
        """Store *document* under *key*.

        Documents must be JSON serialisable so that run outputs remain
        portable between clients and across time — a document that cannot be
        re-read in ten years defeats the purpose of the preservation system.
        """
        ensure_identifier(key, "storage key")
        try:
            json.dumps(document)
        except (TypeError, ValueError) as error:
            raise StorageError(
                f"document for {self.name}/{key} is not JSON serialisable: {error}"
            ) from None
        if not overwrite and key in self._documents:
            raise StorageError(f"{self.name}/{key} already exists")
        self._documents[key] = document
        self._dirty.add(key)

    def _fill(self, key: str, document: object) -> None:
        """Hold *document*, just read from this namespace's directory.

        Unlike :meth:`put` it skips the serialisability check, which cannot
        fail on what ``json.loads`` returns, and leaves *key* clean: the
        file already holds the document.
        """
        self._documents[ensure_identifier(key, "storage key")] = document

    def get(self, key: str) -> object:
        """Return the document stored under *key*."""
        try:
            return self._documents[key]
        except KeyError:
            raise StorageError(f"no document {self.name}/{key}") from None

    def exists(self, key: str) -> bool:
        """Return True if *key* is present."""
        return key in self._documents

    def delete(self, key: str) -> None:
        """Remove the document stored under *key*."""
        if key not in self._documents:
            raise StorageError(f"no document {self.name}/{key}")
        del self._documents[key]
        self._dirty.add(key)

    def keys(self, prefix: str = "") -> List[str]:
        """Return all keys, optionally restricted to a prefix, sorted."""
        return sorted(key for key in self._documents if key.startswith(prefix))

    def __len__(self) -> int:
        return len(self._documents)

    def items(self) -> List[Tuple[str, object]]:
        """All (key, document) pairs, sorted by key."""
        return [(key, self._documents[key]) for key in self.keys()]


class CommonStorage:
    """The shared storage every sp-system client mounts."""

    def __init__(self, namespaces: Iterable[str] = DEFAULT_NAMESPACES) -> None:
        self._namespaces: Dict[str, StorageNamespace] = {}
        #: Absolute path of the directory the storage last matched (set by
        #: :meth:`load` and by a :meth:`persist` that completes), or None.
        self._directory: Optional[str] = None
        for name in namespaces:
            self.create_namespace(name)

    def create_namespace(self, name: str) -> StorageNamespace:
        """Create a namespace; returns the existing one if already present."""
        if name not in self._namespaces:
            self._namespaces[name] = StorageNamespace(name)
        return self._namespaces[name]

    def namespace(self, name: str) -> StorageNamespace:
        """Return an existing namespace."""
        try:
            return self._namespaces[name]
        except KeyError:
            known = ", ".join(sorted(self._namespaces))
            raise StorageError(f"unknown namespace {name!r} (known: {known})") from None

    def namespaces(self) -> List[str]:
        """Sorted namespace names."""
        return sorted(self._namespaces)

    # Convenience pass-throughs used heavily by the core framework.
    def put(self, namespace: str, key: str, document: object, overwrite: bool = True) -> None:
        """Store a document in ``namespace`` under ``key``."""
        self.namespace(namespace).put(key, document, overwrite=overwrite)

    def get(self, namespace: str, key: str) -> object:
        """Fetch a document from ``namespace``."""
        return self.namespace(namespace).get(key)

    def exists(self, namespace: str, key: str) -> bool:
        """Return True if ``namespace/key`` exists."""
        return namespace in self._namespaces and self.namespace(namespace).exists(key)

    def keys(self, namespace: str, prefix: str = "") -> List[str]:
        """Return the keys of ``namespace`` with the given prefix."""
        return self.namespace(namespace).keys(prefix)

    def total_documents(self) -> int:
        """Total number of stored documents across all namespaces."""
        return sum(len(namespace) for namespace in self._namespaces.values())

    def persist(self, directory: str) -> List[str]:
        """Write the new or changed documents as JSON files below *directory*.

        Each document serialises to the bytes of one file.  A file that
        already holds exactly those bytes is left alone; every other file is
        written to a temp file in the same directory, which then replaces
        it (``os.replace``), so a crash leaves the old bytes or the new ones
        and never a truncated file.  There is no fsync: a power loss may
        still lose the last writes.

        Into the storage's bound directory (the one :meth:`load` read or the
        last completed persist wrote), only the documents of dirty keys (put
        or deleted since) and of keys whose file is missing from the
        directory listing are serialised and compared; every other file is
        taken to hold its document already.  So a file deleted behind the
        storage's back is written again, but one edited behind its back is
        left as edited until its document is put again.  Into any other
        directory every document is serialised and compared.  A persist
        that completes binds the storage to *directory* and clears the dirty
        keys; one that raises keeps them, so a retry writes them.

        HTML page documents (the ``{"html": ...}`` shape the status web
        pages use) are written as browsable ``.html`` files instead, so the
        relative links between persisted pages (``runpage_<id>.html``,
        ``../results/<key>.json``) resolve in a browser.

        Namespaces registered through :func:`register_mirrored_namespace`
        (e.g. the build cache's ``buildcache``) are persisted with mirror
        semantics: leftover ``.json``/``.html`` files of documents that no
        longer exist (e.g. the entry of an evicted build) are removed, so a
        later :meth:`load` cannot resurrect them.  All other namespaces
        accumulate: files persisted by earlier runs survive, which is how
        repeated campaigns against one output directory keep their
        combined run history browsable.

        Journal records of namespaces registered through
        :func:`register_journal_namespace` (``history``) are batched into
        segment files of :data:`JOURNAL_SEGMENT_RECORDS` records each, so
        persisting a large journal writes O(segments) files, not one per
        record; :meth:`load` explodes the segments back into individual
        record documents.  Segment files are serialised and compared on
        every persist, dirty or not, so a journal loaded from the older
        one-file-per-record layout is rewritten as segments before the
        mirror removes the record files.

        Returns the paths of the files it wrote (new or changed), so a
        persist of an unchanged storage returns ``[]``.  Used by the
        examples to leave a browsable copy of the storage behind; the
        library itself never requires disk access.
        """
        target = os.path.abspath(directory)
        bound = target == self._directory
        written: List[str] = []
        for namespace_name in self.namespaces():
            namespace = self.namespace(namespace_name)
            target_dir = os.path.join(directory, namespace_name)
            os.makedirs(target_dir, exist_ok=True)
            present = set(os.listdir(target_dir)) if bound else None
            expected, candidates = _namespace_files(namespace, present)
            for filename, document in candidates:
                path = os.path.join(target_dir, filename)
                if _write_if_changed(path, _file_bytes(filename, document)):
                    written.append(path)
            if namespace_name not in MIRRORED_NAMESPACES:
                continue
            for filename in sorted(os.listdir(target_dir)):
                if filename in expected:
                    continue
                if filename.endswith(".json") or filename.endswith(".html"):
                    os.remove(os.path.join(target_dir, filename))
        for namespace in self._namespaces.values():
            namespace._dirty.clear()
        self._directory = target
        return written

    @classmethod
    def load(
        cls, directory: str, namespaces: Optional[Iterable[str]] = None
    ) -> "CommonStorage":
        """Re-create a storage previously written by :meth:`persist`.

        With *namespaces*, only the named namespace directories are read —
        e.g. warm-starting a build cache needs just ``buildcache``, not the
        accumulated run documents and report pages of every past campaign.
        The storage comes back bound to *directory* with no dirty keys, so
        persisting it back unchanged serialises nothing (journal segments
        apart) and writes nothing.
        """
        if not os.path.isdir(directory):
            raise StorageError(f"no such storage directory: {directory}")
        wanted = set(namespaces) if namespaces is not None else None
        storage = cls(namespaces=())
        for namespace_name in sorted(os.listdir(directory)):
            namespace_dir = os.path.join(directory, namespace_name)
            if not os.path.isdir(namespace_dir):
                continue
            if wanted is not None and namespace_name not in wanted:
                continue
            namespace = storage.create_namespace(namespace_name)
            for filename in sorted(os.listdir(namespace_dir)):
                path = os.path.join(namespace_dir, filename)
                if filename.endswith(".json"):
                    key = filename[:-len(".json")]
                    try:
                        document = json.loads(_read_text(path))
                    except json.JSONDecodeError as error:
                        raise StorageError(
                            f"storage document {path} is not valid JSON: {error}"
                        ) from None
                    if _is_segment_document(document):
                        # A journal segment file: explode it back into the
                        # individual record documents it batches.
                        for record_key, record in sorted(
                            document[_SEGMENT_SENTINEL].items()
                        ):
                            namespace._fill(record_key, record)
                    else:
                        namespace._fill(key, document)
                elif filename.endswith(".html"):
                    key = filename[:-len(".html")]
                    namespace._fill(key, {"html": _read_text(path)})
        storage._directory = os.path.abspath(directory)
        return storage


def _is_html_document(document: object) -> bool:
    """True for the ``{"html": <str>}`` documents holding rendered pages."""
    return (
        isinstance(document, dict)
        and set(document) == {"html"}
        and isinstance(document["html"], str)
    )


def _is_segment_document(document: object) -> bool:
    """True for on-disk journal segment files written by :meth:`persist`."""
    return (
        isinstance(document, dict)
        and set(document) == {_SEGMENT_SENTINEL}
        and isinstance(document[_SEGMENT_SENTINEL], dict)
    )


def _namespace_files(
    namespace: StorageNamespace, present: Optional[Set[str]] = None
) -> Tuple[Set[str], List[Tuple[str, object]]]:
    """The files :meth:`CommonStorage.persist` keeps for *namespace*.

    Returns the name of every file the namespace's documents map to, and
    the ``(filename, document)`` pairs whose bytes the persist compares
    with their file, in write order: by key, journal segments last.  With
    *present* (the directory listing, when the storage is bound to the
    directory) a document is compared only when its key is dirty or its
    file is missing; without it every document is.  Segments always are.
    """
    record_prefix = JOURNAL_NAMESPACE_PREFIXES.get(namespace.name)
    dirty = namespace._dirty
    expected: Set[str] = set()
    candidates: List[Tuple[str, object]] = []
    journal_records: Dict[str, object] = {}
    for key, document in namespace.items():
        if record_prefix is not None and _is_journal_record_key(key, record_prefix):
            journal_records[key] = document
            continue
        filename = f"{key}.html" if _is_html_document(document) else f"{key}.json"
        expected.add(filename)
        if present is None or key in dirty or filename not in present:
            candidates.append((filename, document))
    # Numeric sequence order, not lexicographic: legacy unpadded record keys
    # must be batched (and replayed) in append order.
    record_keys = sorted(
        journal_records,
        key=lambda key: int(key[len(record_prefix):]),  # type: ignore[arg-type]
    )
    for start in range(0, len(record_keys), JOURNAL_SEGMENT_RECORDS):
        chunk = record_keys[start:start + JOURNAL_SEGMENT_RECORDS]
        # Named after the first record's sequence suffix, so the
        # lexicographic file order is the journal's append order.
        suffix = chunk[0][len(record_prefix):]  # type: ignore[arg-type]
        filename = f"{record_prefix}segment_{suffix}.json"
        expected.add(filename)
        candidates.append(
            (filename, {_SEGMENT_SENTINEL: {key: journal_records[key] for key in chunk}})
        )
    return expected, candidates


def _file_bytes(filename: str, document: object) -> bytes:
    """The bytes of *filename*, which :func:`_namespace_files` mapped
    *document* to: a page's HTML, or the document's JSON."""
    if filename.endswith(".html"):
        return document["html"].encode("utf-8")  # type: ignore[index]
    return _json_bytes(document)


def _json_bytes(document: object) -> bytes:
    """The bytes of the file :meth:`CommonStorage.persist` writes for *document*."""
    return json.dumps(document, indent=2, sort_keys=True).encode("utf-8")


def _read_text(path: str) -> str:
    """The text of a persisted file; :class:`StorageError` if not UTF-8."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as error:
        raise StorageError(
            f"storage document {path} is not valid UTF-8: {error}"
        ) from None


def _write_if_changed(path: str, data: bytes) -> bool:
    """Make *path* hold *data*; False when it already did (nothing written)."""
    try:
        with open(path, "rb") as handle:
            if handle.read() == data:
                return False
    except FileNotFoundError:
        pass
    _replace_file(path, data)
    return True


def _replace_file(path: str, data: bytes) -> None:
    """Write *data* to a fresh temp file beside *path*, then rename it over *path*.

    The temp file has a random name and is created exclusively
    (``O_EXCL``), so two processes persisting into one directory never
    write into each other's; it gets the mode a plain ``open`` gives (0o666
    less the process's umask).  The temp file is removed if the write or
    the rename fails.
    """
    directory, filename = os.path.split(path)
    temp_path = os.path.join(
        directory, f".{filename}.{secrets.token_hex(6)}{_TEMP_SUFFIX}"
    )
    descriptor = os.open(temp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        os.unlink(temp_path)
        raise


class AppendOnlyJournal:
    """An append-only record log inside one storage namespace.

    Incremental persistence (e.g. the validation history's ``history``
    journal) writes one document per state change instead of rewriting a
    wholesale snapshot.  Records live under zero-padded keys
    ``<prefix><sequence:08d>``, so the namespace's lexicographic key order
    *is* the append order and a replay needs nothing beyond
    :meth:`StorageNamespace.keys`.  The journal never rewrites an existing
    record: appending is its only mutation.
    """

    #: Width of the zero-padded sequence number in the record keys.
    SEQUENCE_DIGITS = 8

    def __init__(self, namespace: StorageNamespace, prefix: str = "journal_") -> None:
        self.namespace = namespace
        self.prefix = prefix
        self._next_sequence = self._scan_next_sequence()

    def _scan_next_sequence(self) -> int:
        highest = 0
        for key in self.namespace.keys(prefix=self.prefix):
            suffix = key[len(self.prefix):]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
        return highest + 1

    def keys(self) -> List[str]:
        """The record keys, in append order.

        Keys are ordered by their *parsed* sequence number, not
        lexicographically: the journal's own keys are zero-padded (where the
        two orders coincide), but a legacy journal written before the
        padding existed — pre-segment layouts are documented as still
        readable — carries unpadded keys, and ``journal_10`` must replay
        after ``journal_2``, not before it.
        """
        return sorted(
            (
                key
                for key in self.namespace.keys(prefix=self.prefix)
                if key[len(self.prefix):].isdigit()
            ),
            key=lambda key: int(key[len(self.prefix):]),
        )

    def __len__(self) -> int:
        return len(self.keys())

    def key_for(self, sequence: int) -> str:
        """The storage key of record number *sequence*."""
        return f"{self.prefix}{sequence:0{self.SEQUENCE_DIGITS}d}"

    def append(self, document: object) -> int:
        """Append *document* as the next record; returns its sequence number."""
        sequence = self._next_sequence
        self.namespace.put(self.key_for(sequence), document)
        self._next_sequence = sequence + 1
        return sequence

    def records(self) -> List[Tuple[int, object]]:
        """All ``(sequence, document)`` pairs, in append order."""
        return [
            (int(key[len(self.prefix):]), self.namespace.get(key))
            for key in self.keys()
        ]


__all__ = [
    "AppendOnlyJournal",
    "CommonStorage",
    "StorageNamespace",
    "DEFAULT_NAMESPACES",
    "JOURNAL_NAMESPACE_PREFIXES",
    "JOURNAL_SEGMENT_RECORDS",
    "MIRRORED_NAMESPACES",
    "register_journal_namespace",
    "register_mirrored_namespace",
]
