"""Content-addressed artifact store for flow-stage products.

Every stage of the flow pipeline (:mod:`repro.core.stages`) consumes
and produces serializable artifacts.  An artifact's identity is the
content hash of everything that determines it — the design, the
technology, and the stage parameters — so identical inputs always map
to the same key, across processes and across interpreter runs.

The store is one on-disk tree of pickle files under
``root/<kk>/<key>.pkl``, shared by worker processes and by repeat
invocations.  Every hit deserialises a fresh object graph, so callers
can mutate the returned artifact freely without poisoning the cache:
a build read from the store goes to the one flow that read it, while
a build a runner computed itself stays in memory, pristine, and each
later cell runs on a fork of it
(:class:`~repro.core.stages.BuildMemo`).  A root that cannot be
written degrades to no cache: saves are dropped and loads miss.

Corruption of a stored artifact (truncated write, stale schema,
unpicklable payload) is never fatal: ``load`` returns ``None``, the
bad file is removed, and the caller rebuilds from scratch.

The store doubles as the shared cache tier of the flow service
(:mod:`repro.serve`): it evicts least-recently-used files down to a
byte budget (:meth:`ArtifactStore.gc`), and every load/save feeds
hit/miss/byte counters into :mod:`repro.obs`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Optional, Union

from repro import obs

#: Bump to invalidate every previously stored artifact (schema change).
#: 2: design identity moved to spec-content hashes (repro.designs) —
#: keys derived under the old name-salted hashing must not be reused.
#: 3: a ``flow-cell`` entry holds a compact cell record and the full
#: flow moved to a derived key — no whole-flow entry is read as a record.
#: 4: a cell record holds measurements only (no feasibility verdict),
#: and a budget-blind cell's key no longer hashes its budgets.
#: 5: a cell record keeps the design's clock period, so a hit is judged
#: without resolving its design; cell keys hash the technology's
#: fingerprint, and a budget-blind key the analysis settings alone.
ARTIFACT_SCHEMA = 5

#: Environment variable overriding the default on-disk cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable giving the default disk budget (bytes) for
#: :meth:`ArtifactStore.gc`; unset means unbounded.
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"


@dataclasses.dataclass(frozen=True)
class StageKeyEntry:
    """Declares what one content-addressed artifact kind hashes.

    The whole-program cache-soundness analyzer
    (:mod:`repro.analysis.rules_cachekey`) diffs ``hashed_fields`` —
    the parameter-dataclass fields this manifest *declares* folded into
    the stage's content key — against the fields the stage function's
    transitive closure actually *reads*.  A read outside the manifest
    is a stale-cache bug (C001); a hashed field nothing reads is a
    spurious-miss smell (C002).

    Attributes
    ----------
    kind:
        The :func:`content_key` kind tag ("build", "flow-cell", ...).
    stage:
        Qualified name of the function that consumes the parameters
        and produces the artifact.
    params_type:
        Qualified name of the parameter dataclass hashed into the key.
    params_param:
        Name of ``stage``'s formal parameter carrying that dataclass.
    hashed_fields:
        The dataclass fields folded into the content key.
    """

    kind: str
    stage: str
    params_type: str
    params_param: str
    hashed_fields: tuple[str, ...]


#: Every content-addressed artifact kind, its producing stage, and the
#: parameter fields its key hashes.  Keep in sync with the
#: ``content_key`` call sites; ``repro lint --static`` enforces the
#: read-vs-hashed diff at CI time.
STAGE_KEY_MANIFEST: tuple[StageKeyEntry, ...] = (
    StageKeyEntry(
        kind="build",
        stage="repro.core.stages.build_stage",
        params_type="repro.core.stages.BuildParams",
        params_param="params",
        hashed_fields=("max_stage_cap",)),
    StageKeyEntry(
        kind="flow-cell",
        stage="repro.runner.runner._execute_job",
        params_type="repro.runner.matrix.JobSpec",
        params_param="job",
        hashed_fields=("design", "policy", "slack", "random_fraction",
                       "random_seed", "lambda_track")),
)


def default_cache_dir() -> Path:
    """The on-disk cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "artifacts"


def default_cache_max_bytes() -> Optional[int]:
    """The disk budget from ``$REPRO_CACHE_MAX_BYTES`` (None = unbounded).

    Read by the CLI and the serve daemon when assembling a store — never
    from worker-reachable code, so the forwarded-env seam stays closed.
    """
    env = os.environ.get(CACHE_MAX_BYTES_ENV)
    if not env:
        return None
    return max(0, int(env))


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serializable canonical form for hashing.

    Dataclasses become ``{field: value}`` dicts tagged with the class
    name, enums their values, tuples/sets lists; anything else must
    already be JSON-native (the fallback ``repr`` would be unstable
    across processes, so unknown objects raise instead).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; json.dumps uses it too.
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "value": obj.value}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: _canonical(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {"__dataclass__": type(obj).__name__, "fields": fields}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(),
                                                         key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_canonical(v) for v in obj), key=repr)
    # numpy scalars quack like python numbers.
    if hasattr(obj, "item") and callable(obj.item):
        return _canonical(obj.item())
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for hashing; "
                    f"pass dataclasses, enums, or JSON-native values")


def fingerprint(obj: Any) -> str:
    """Stable content hash (hex sha256) of any canonicalisable object."""
    blob = json.dumps(_canonical(obj), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def content_key(kind: str, **parts: Any) -> str:
    """The store key for a ``kind`` artifact determined by ``parts``.

    The schema version is folded in so any format change invalidates
    the whole cache rather than deserialising stale layouts.
    """
    return fingerprint({"schema": ARTIFACT_SCHEMA, "kind": kind,
                        "parts": {k: _canonical(v)
                                  for k, v in parts.items()}})


def design_fingerprint(design: Any) -> str:
    """Content hash of a :class:`~repro.netlist.design.Design`.

    The display name is excluded: it identifies nothing the flow
    computes from, so two designs differing only in name share every
    cached artifact (the same decoupling
    :func:`repro.designs.spec_fingerprint` applies at the spec level).

    The :func:`~repro.io.design_json.design_to_dict` payload is already
    JSON-native, which :func:`_canonical` would return unchanged, so it
    is hashed directly: the digest equals ``fingerprint(payload)``.
    """
    from repro.io.design_json import design_to_dict
    payload = design_to_dict(design)
    payload.pop("name", None)
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def technology_fingerprint(tech: Any) -> str:
    """Content hash of a :class:`~repro.tech.technology.Technology`."""
    return fingerprint(tech)


class ArtifactStore:
    """Content-addressed store of pickled artifacts on disk.

    Parameters
    ----------
    root:
        On-disk cache root (:func:`default_cache_dir` when omitted).
    max_disk_bytes:
        Disk byte budget.  When set, every :meth:`save` that pushes the
        tree over budget triggers :meth:`gc`, evicting the
        least-recently-*used* files (loads refresh recency).  ``None``
        leaves the tree unbounded.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None,
                 max_disk_bytes: Optional[int] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_disk_bytes = max_disk_bytes

    # -- paths ---------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """On-disk location of ``key`` (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.pkl"

    # -- core API ------------------------------------------------------------

    def save(self, key: str, obj: Any) -> None:
        """Persist ``obj`` under ``key`` (atomic rename; best effort)."""
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        obs.counter("artifacts.saves").inc()
        obs.counter("artifacts.save_bytes").inc(len(blob))
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            # A read-only or full cache dir degrades to no cache.
            return
        if self.max_disk_bytes is not None:
            self.gc()

    def load(self, key: str) -> Optional[Any]:
        """A *fresh* deserialisation of ``key``, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            obs.counter("artifacts.misses").inc()
            return None
        # Every hit refreshes recency, so gc never evicts the hottest
        # entries first.
        self._touch(path)
        try:
            obj = pickle.loads(blob)
        except Exception:
            # Truncated write or stale class layout: treat as a miss and
            # drop the poisoned entry so the rebuild can overwrite it.
            self.discard(key)
            obs.counter("artifacts.corruptions").inc()
            obs.counter("artifacts.misses").inc()
            return None
        obs.counter("artifacts.hits").inc()
        obs.counter("artifacts.load_bytes").inc(len(blob))
        return obj

    def discard(self, key: str) -> None:
        """Remove ``key`` (missing is fine)."""
        try:
            self.path_for(key).unlink()
        except OSError:
            pass

    # -- eviction / GC --------------------------------------------------------

    def disk_entries(self) -> list[tuple[str, Path, int, float]]:
        """Every on-disk artifact as ``(key, path, bytes, mtime)``."""
        out: list[tuple[str, Path, int, float]] = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.glob("*/*.pkl")):
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((path.stem, path, int(stat.st_size),
                        float(stat.st_mtime)))
        return out

    def gc(self, max_bytes: Optional[int] = None) -> dict[str, int]:
        """Evict least-recently-used disk entries down to a byte budget.

        ``max_bytes`` overrides the store's configured budget for this
        pass (``None`` falls back to :attr:`max_disk_bytes`; both
        ``None`` means scan-and-report only).  Recency comes from file
        mtimes, which :meth:`load` refreshes on every hit.
        """
        budget = self.max_disk_bytes if max_bytes is None else max_bytes
        entries = self.disk_entries()
        total = sum(size for _, _, size, _ in entries)
        evicted = 0
        evicted_bytes = 0
        if budget is not None and total > budget:
            # Oldest mtime first; path breaks ties deterministically.
            for _, path, size, _ in sorted(entries,
                                           key=lambda e: (e[3], str(e[1]))):
                if total <= budget:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                evicted += 1
                evicted_bytes += size
        obs.counter("artifacts.evictions").inc(evicted)
        obs.counter("artifacts.evicted_bytes").inc(evicted_bytes)
        obs.gauge("artifacts.disk_bytes").set(float(total))
        return {"evicted": evicted, "evicted_bytes": evicted_bytes,
                "kept_bytes": total}

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh ``path``'s mtime (LRU recency); best effort."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    def stats(self) -> dict[str, int]:
        """What the store holds on disk: artifact count and bytes.

        Hits, misses and evictions are the ``artifacts.*`` obs counters
        of whichever tracer is active (``/v1/metrics`` on a daemon).
        """
        entries = self.disk_entries()
        return {"disk_entries": len(entries),
                "disk_bytes": sum(size for _, _, size, _ in entries)}
