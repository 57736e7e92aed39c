"""Decision cache keyed by canonical form, operation, domain and budgets.

Budget fields are part of every key so changed budgets can never serve a
stale decision.  The optional directory back-end stores one JSON file per
entry.  Every process, including each ``--jobs`` worker, writes directly;
writes are atomic (a temporary file, then a rename), so concurrent writers
of the same entry are safe, and an entry that cannot be parsed is counted
in ``corrupt`` and treated as a miss.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

# Salts every file name: entries written under an older layout (witnesses
# in the caller's labeling rather than the canonical one, or a field
# Groebner decision carrying basis polynomials in the filler's labeling)
# are never read.
SCHEMA = 3


class DecisionCache:
    def __init__(self, directory=None):
        self._mem = {}
        self._dir = Path(directory) if directory else None
        self.corrupt = 0
        if self._dir:
            self._dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _filename(key):
        blob = json.dumps([SCHEMA, key], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest() + ".json"

    def get(self, key):
        if key in self._mem:
            return self._mem[key]
        if self._dir:
            path = self._dir / self._filename(key)
            try:
                value = json.loads(path.read_text())
            except FileNotFoundError:
                return None
            except ValueError:  # truncated or otherwise unreadable
                self.corrupt += 1
                return None
            self._mem[key] = value
            return value
        return None

    def put(self, key, value):
        self._mem[key] = value
        if self._dir:
            fd, tmp = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(value, sort_keys=True))
                os.replace(tmp, self._dir / self._filename(key))
            except BaseException:
                os.unlink(tmp)
                raise

    def __len__(self):
        return len(self._mem)
