"""Decision cache keyed by canonical form, operation, domain and budgets.

The cache is a directory, ``--cache DIR``, holding one JSON file per entry;
without one, corank runs with ``cache=None`` and gamma reads back only the
facts kept on the graph.  Budget fields are part of every key so changed
budgets can never serve a stale decision.  Every process, including each
``--jobs`` worker, writes directly; writes are atomic (a temporary file,
then a rename), so concurrent writers of the same entry are safe, and an
entry that cannot be parsed, or that a caller's check rejects, is counted
in ``corrupt`` and treated as a miss.  Entries put, or read and accepted,
are also kept in memory, so gamma_Q reads gamma_Z's box-scan entry without
reading its file again.
"""

import hashlib
import json
import os
import tempfile

# Salts every file name: entries written under an older layout (witnesses
# in the caller's labeling rather than the canonical one, or a field
# Groebner decision carrying basis polynomials in the filler's labeling)
# are never read.
SCHEMA = 3

# Names every file and writes every entry: the bytes of
# json.dumps(..., sort_keys=True), from one encoder rather than a new one
# per call.
_encode = json.JSONEncoder(sort_keys=True).encode


class DecisionCache:
    def __init__(self, directory=None):
        self._mem = {}
        self._dir = os.fspath(directory) if directory else None
        self.corrupt = 0
        if self._dir:
            os.makedirs(self._dir, exist_ok=True)

    @staticmethod
    def _filename(key):
        return hashlib.sha256(_encode([SCHEMA, key]).encode()).hexdigest() + ".json"

    def get(self, key, check=None):
        """The value under key, or None on a miss.

        A value this cache put, or read and accepted before, comes from
        memory and is not checked again.  Otherwise the entry's file is read
        in one call, its bytes handed to json.loads; a missing file is a
        miss.  An entry that does not decode or parse, or that the predicate
        check rejects, is counted in corrupt and is a miss, so the caller
        recomputes it and its put overwrites the file.
        """
        value = self._mem.get(key)
        if value is not None or not self._dir:
            return value
        try:
            with open(os.path.join(self._dir, self._filename(key)), "rb") as fh:
                value = json.loads(fh.read())
        except FileNotFoundError:
            return None
        except ValueError:  # truncated, undecodable or otherwise unreadable
            self.corrupt += 1
            return None
        if check is not None and not check(value):
            self.corrupt += 1
            return None
        self._mem[key] = value
        return value

    def put(self, key, value):
        self._mem[key] = value
        if self._dir:
            fd, tmp = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(_encode(value))
                os.replace(tmp, os.path.join(self._dir, self._filename(key)))
            except BaseException:
                os.unlink(tmp)
                raise
