"""Index manifest: per-partition lineage + metrics for resumable builds.

The reference has no resume story (a failed run restarts from zero,
SURVEY.md §4.1); its closest analogue is the persisted-index reuse in
/root/reference/benchmark/inference/build_index.py:25-28.  Our build is
checkpointed at *group* granularity (a group = a contiguous run of input
files = a disjoint set of docs): each group's segment partition is
written to its own directory and acknowledged in the manifest with
lineage (input files) and metrics (docs, postings, terms, token sum,
wall time).  Resume = skip groups already marked done; the manifest is
written atomically (tmp + rename) so a crash mid-write never corrupts
it.

Every save records a fresh publish ``token``, and every change a reader
can see (build, append, compaction, ``delete_docs``) ends with a save,
so a reader that holds an open index checks it is current with one
small read (``publish_token``), as Lucene's ``SearcherManager`` keeps
one reader open until a commit changes the index.  A manifest written
before tokens has none; its readers re-open it per call.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Any

MANIFEST_NAME = "manifest.json"
# v3: per-group doc ranges (doc_lo/doc_hi) + input inventory hash
# v4: doc lengths only in each group's norms array; segment and
#     positions rows carry no dl stream
# v5: every group records its span [doc_lo, doc_hi), set by the norms
#     pass (the norms array's base and end); no bounding ranges
FORMAT_VERSION = 5


class FormatVersionError(ValueError):
    """The index on disk was written in another format version."""


def publish_token(index_dir: str) -> str:
    """The publish token of the manifest at ``index_dir`` as saved
    now; "" when there is no manifest, it is another format version or
    it records no token."""
    try:
        with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
            d = json.load(f)
    except FileNotFoundError:
        return ""
    return d.get("token", "") if d.get("version") == FORMAT_VERSION else ""


@dataclass
class Manifest:
    index_dir: str
    config: dict = field(default_factory=dict)
    fingerprint: str = ""
    params_key: str = ""
    n_groups: int = 0
    inventory: str = ""                          # hash of (file, rows) inputs
    stages: dict = field(default_factory=dict)   # name -> {"status", ...}
    groups: dict = field(default_factory=dict)   # str(group_id) -> entry
    stats: dict = field(default_factory=dict)    # num_docs, total_len, avgdl
    token: str = ""                              # fresh on every save

    @property
    def path(self) -> str:
        return os.path.join(self.index_dir, MANIFEST_NAME)

    def save(self) -> None:
        os.makedirs(self.index_dir, exist_ok=True)
        self.token = uuid.uuid4().hex
        payload = {
            "version": FORMAT_VERSION,
            "config": self.config,
            "fingerprint": self.fingerprint,
            "n_groups": self.n_groups,
            "inventory": self.inventory,
            "stages": self.stages,
            "groups": self.groups,
            "stats": self.stats,
            "token": self.token,
            "saved_at": time.strftime("%Y-%m-%d %H:%M:%S"),
        }
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)

    @classmethod
    def load(cls, index_dir: str) -> "Manifest | None":
        """The index's manifest; None when there is none.  Raises
        :class:`FormatVersionError` for another format version."""
        p = os.path.join(index_dir, MANIFEST_NAME)
        if not os.path.exists(p):
            return None
        with open(p) as f:
            d = json.load(f)
        if d.get("version") != FORMAT_VERSION:
            raise FormatVersionError(
                f"index at {index_dir} has format version {d.get('version')}; "
                f"this engine reads version {FORMAT_VERSION}: rebuild the index"
            )
        return cls(
            index_dir=index_dir,
            config=d.get("config", {}),
            fingerprint=d.get("fingerprint", ""),
            n_groups=d.get("n_groups", 0),
            inventory=d.get("inventory", ""),
            stages=d.get("stages", {}),
            groups=d.get("groups", {}),
            stats=d.get("stats", {}),
            token=d.get("token", ""),
        )

    # -- stage/group bookkeeping ------------------------------------
    def stage_done(self, name: str) -> bool:
        return self.stages.get(name, {}).get("status") == "done"

    def mark_stage(self, name: str, **info: Any) -> None:
        self.stages[name] = {"status": "done", **info}
        self.save()

    def group_done(self, group_id: int) -> bool:
        return self.groups.get(str(group_id), {}).get("status") == "done"

    def mark_group(self, group_id: int, **info: Any) -> None:
        self.groups[str(group_id)] = {"status": "done", **info}
        self.save()

    def done_groups(self) -> list[int]:
        return sorted(
            int(g) for g, e in self.groups.items() if e.get("status") == "done"
        )

    def is_complete(self) -> bool:
        return (
            self.n_groups > 0
            and len(self.done_groups()) == self.n_groups
            and self.stage_done("finalize")
        )
