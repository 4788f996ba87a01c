"""Public API: :class:`ZeroShotCostModel`.

The model is trained once on traces from many databases and then predicts
runtimes on unseen databases out of the box.  Cardinality inputs are
pluggable (``"exact"`` / ``"deepdb"`` / ``"optimizer"``), mirroring the
variants evaluated in the paper; few-shot fine-tuning continues training on
a handful of queries from the target database.
"""

from __future__ import annotations

import copy
import io
from hashlib import blake2b

import numpy as np

from ..cardest import (CARD_SOURCES, DataDrivenEstimator,
                       annotate_cardinalities)
from ..featurization import (FeatureScalers, FeaturizationCache, TargetScaler,
                             build_query_graphs)
from ..nn import load_state, q_error_metrics, save_state
from .model import ZeroShotModel
from .training import TrainingConfig, predict_runtimes, train_model

__all__ = ["ZeroShotCostModel", "featurize_records", "EstimatorCache"]


class EstimatorCache:
    """Lazily built, shared :class:`DataDrivenEstimator` per database.

    Entries are validated against a cheap database fingerprint (name +
    per-table row counts): a database that was rebuilt or grown under the
    same name gets a fresh estimator instead of silently reusing the stale
    model trained on the old data.
    """

    def __init__(self, sample_size=1024, seed=0, store=None):
        self.sample_size = sample_size
        self.seed = seed
        self.store = store
        self._cache = {}

    def get(self, db):
        fingerprint = db.fingerprint()
        entry = self._cache.get(db.name)
        if entry is None or entry[0] != fingerprint:
            entry = (fingerprint, DataDrivenEstimator(
                db, sample_size=self.sample_size, seed=self.seed,
                store=self.store))
            self._cache[db.name] = entry
        return entry[1]

    def invalidate(self, db_name):
        self._cache.pop(db_name, None)


def featurize_records(records, dbs, cards="exact", estimator_cache=None,
                      storage_formats=None, feat_cache=None, keys=None):
    """Build query graphs for trace records.

    ``dbs`` maps database names to :class:`~repro.storage.Database` objects;
    ``cards`` chooses the cardinality source for the ``cardout`` features.

    Records are grouped per database and encoded through the vectorized
    batch builder; for the estimator-free sources the cardinality lookup is
    fused into the traversal (no per-plan annotation pass).  With a
    :class:`~repro.featurization.FeaturizationCache` as ``feat_cache``,
    plans whose content fingerprint was featurized before — equal but
    possibly distinct objects — are served from the cache and skip
    annotation and construction entirely.  ``keys`` optionally supplies the
    cache keys, aligned with ``records``, that
    :meth:`~repro.featurization.FeaturizationCache.key` would compute (e.g.
    plan digests a caller already holds), so the plans are not hashed
    again; without it the keys come from ``feat_cache.key``.
    """
    if cards not in CARD_SOURCES:
        raise ValueError(f"unknown cardinality source {cards!r}")
    estimator_cache = estimator_cache or EstimatorCache()
    records = list(records)
    graphs = [None] * len(records)
    pending = []
    duplicates = []
    if feat_cache is not None:
        if keys is None:
            keys = _cache_keys(feat_cache, records, dbs, cards,
                               storage_formats)
        elif len(keys) != len(records):
            raise ValueError(f"{len(keys)} keys for {len(records)} records")
        first_of_key = {}
        cache_get = feat_cache.get
        for position, key in enumerate(keys):
            cached = cache_get(key)
            if cached is not None:
                graphs[position] = cached
            elif key in first_of_key:
                duplicates.append(position)  # same content earlier this batch
            else:
                first_of_key[key] = position
                pending.append(position)
    else:
        pending = range(len(records))

    by_db = {}
    for position in pending:
        by_db.setdefault(records[position].db_name, []).append(position)
    for db_name, positions in by_db.items():
        db = dbs[db_name]
        plans = [records[position].plan for position in positions]
        if cards == "deepdb":
            estimator = estimator_cache.get(db)
            card_maps = [annotate_cardinalities(db, plan, cards,
                                                estimator=estimator)
                         for plan in plans]
        else:
            card_maps = cards  # fused into the traversal ("exact"/"optimizer")
        built = build_query_graphs(db, plans, card_maps,
                                   storage_formats=storage_formats)
        for position, graph in zip(positions, built):
            graphs[position] = graph
            if feat_cache is not None:
                feat_cache.put(keys[position], graph)
    # Duplicates share the graph built for their first occurrence (resolved
    # from this call's results, not the cache — the first occurrence may
    # already have been evicted by later puts).
    for position in duplicates:
        graphs[position] = graphs[first_of_key[keys[position]]]
    return graphs


def _cache_keys(feat_cache, records, dbs, cards, storage_formats):
    """``feat_cache.key`` for every record, each database fingerprinted
    once."""
    db_fingerprints = {}
    keys = []
    for record in records:
        db_fingerprint = db_fingerprints.get(record.db_name)
        if db_fingerprint is None:
            db_fingerprint = dbs[record.db_name].fingerprint()
            db_fingerprints[record.db_name] = db_fingerprint
        keys.append(feat_cache.key(None, record.plan, cards, storage_formats,
                                   db_fingerprint=db_fingerprint))
    return keys


class ZeroShotCostModel:
    """A trained zero-shot cost model with its scalers and configuration."""

    def __init__(self, model, feature_scalers, target_scaler, config):
        self.model = model
        self.feature_scalers = feature_scalers
        self.target_scaler = target_scaler
        self.config = config

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    @classmethod
    def train(cls, traces, dbs, cards="exact", config=None,
              estimator_cache=None, graphs=None, runtimes=None):
        """Train on a list of traces (typically from many databases).

        Pre-featurized ``graphs``/``runtimes`` can be passed to skip
        featurization (the benchmark harness caches them).
        """
        config = config or TrainingConfig()
        if graphs is None:
            records = [r for trace in traces for r in trace]
            graphs = featurize_records(records, dbs, cards=cards,
                                       estimator_cache=estimator_cache)
            runtimes = np.array([r.runtime_ms for r in records])
        model = ZeroShotModel(hidden_dim=config.hidden_dim,
                              dropout=config.dropout, seed=config.seed)
        scalers, target_scaler, history = train_model(
            model, graphs, runtimes, config)
        trained = cls(model, scalers, target_scaler, config)
        trained.history = history
        return trained

    def fine_tune(self, records, dbs, cards="exact", epochs=15,
                  learning_rate=4e-4, estimator_cache=None, graphs=None,
                  runtimes=None, feat_cache=None):
        """Few-shot mode: continue training on queries of the target database.

        Returns a *new* model; the original is unchanged.  A ``feat_cache``
        (fingerprint-keyed) lets a long-running caller — the continuous-
        learning controller fine-tunes on plans it will also shadow-
        evaluate — reuse featurized graphs across calls.
        """
        if graphs is None:
            graphs = featurize_records(records, dbs, cards=cards,
                                       estimator_cache=estimator_cache,
                                       feat_cache=feat_cache)
            runtimes = np.array([r.runtime_ms for r in records])
        clone = copy.deepcopy(self)
        few_config = self.config.few_shot(epochs=epochs,
                                          learning_rate=learning_rate)
        train_model(clone.model, graphs, runtimes, few_config,
                    feature_scalers=clone.feature_scalers,
                    target_scaler=clone.target_scaler)
        clone.config = few_config
        return clone

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_records(self, records, dbs, cards="deepdb",
                        estimator_cache=None, graphs=None, batch_cache=None,
                        feat_cache=None):
        """Predicted runtimes (ms) for trace records on any database.

        Inference runs the graph-free numpy fast path; repeated calls on the
        same ``graphs`` objects reuse cached batches (``batch_cache``
        defaults to a process-wide cache).  Freshly featurized graphs exist
        only for this call, so batch caching is skipped for them — unless a
        ``feat_cache`` (fingerprint-keyed) is supplied, in which case equal
        plans resolve to stable graph objects and batches stay cacheable
        across calls.
        """
        if graphs is None:
            graphs = featurize_records(records, dbs, cards=cards,
                                       estimator_cache=estimator_cache,
                                       feat_cache=feat_cache)
            if batch_cache is None and feat_cache is None:
                batch_cache = False  # one-shot graphs: nothing to memoize
        return predict_runtimes(self.model, graphs, self.feature_scalers,
                                self.target_scaler, batch_cache=batch_cache)

    def predict_trace(self, trace, dbs, cards="deepdb", estimator_cache=None):
        return self.predict_records(list(trace), dbs, cards=cards,
                                    estimator_cache=estimator_cache)

    def evaluate(self, trace, dbs, cards="deepdb", estimator_cache=None,
                 graphs=None, batch_cache=None):
        """Q-error summary of predictions against the trace's true runtimes."""
        records = list(trace)
        predictions = self.predict_records(records, dbs, cards=cards,
                                           estimator_cache=estimator_cache,
                                           graphs=graphs,
                                           batch_cache=batch_cache)
        actuals = np.array([r.runtime_ms for r in records])
        return q_error_metrics(predictions, actuals)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _full_state(self):
        """Model parameters + scaler state, as one flat checkpoint dict."""
        state = self.model.state_dict()
        for node_type, scaler_state in self.feature_scalers.state().items():
            state[f"__scaler__{node_type}__mean"] = scaler_state["mean"]
            state[f"__scaler__{node_type}__std"] = scaler_state["std"]
        state["__target__"] = np.array([self.target_scaler.mean,
                                        self.target_scaler.std])
        return state

    def _metadata(self):
        return {
            "hidden_dim": self.config.hidden_dim,
            "dropout": self.config.dropout,
            "seed": self.config.seed,
            "dtype": self.config.dtype,
        }

    def save(self, path):
        save_state(path, self._full_state(), metadata=self._metadata())

    def to_bytes(self):
        """The model as checkpoint bytes (the ``.npz`` :meth:`save` writes).

        The serving registry stores deployments as these bytes, so a
        published model round-trips through the exact
        :mod:`repro.nn.serialize` path a file checkpoint does — dtypes
        intact, reload bit-identical.
        """
        buffer = io.BytesIO()
        self.save(buffer)
        return buffer.getvalue()

    @classmethod
    def from_bytes(cls, payload):
        """Rebuild a model from :meth:`to_bytes` output."""
        return cls.load(io.BytesIO(payload))

    def state_digest(self):
        """Deterministic 16-byte hex digest of the full checkpoint state.

        Hashes every parameter and scaler array (name, dtype, shape, raw
        bytes) plus the architecture metadata — *not* the serialized ``.npz``
        container, whose zip framing embeds timestamps.  Two models with
        bit-identical state always share a digest, so the serving registry
        can content-address deployments with it.
        """
        digest = blake2b(digest_size=16)
        state = self._full_state()
        for name in sorted(state):
            values = np.ascontiguousarray(state[name])
            digest.update(name.encode())
            digest.update(str(values.dtype).encode())
            digest.update(repr(values.shape).encode())
            digest.update(values.tobytes())
        digest.update(repr(sorted(self._metadata().items())).encode())
        return digest.hexdigest()

    @classmethod
    def from_state(cls, state, metadata, copy=True):
        """Rebuild a model from a flat checkpoint dict plus metadata.

        ``state``/``metadata`` are what :func:`~repro.nn.serialize.
        load_state` returns for a checkpoint written by :meth:`save`.
        ``copy=False`` adopts the given arrays without copying — the
        registry's mmap hydration path passes read-only memory-mapped
        views here, so every process serving the same checkpoint shares
        one page-cache copy of the parameters.  Models built with
        ``copy=False`` are inference-only.
        """
        state = dict(state)
        config = TrainingConfig(hidden_dim=int(metadata["hidden_dim"]),
                                dropout=float(metadata["dropout"]),
                                seed=int(metadata["seed"]),
                                dtype=metadata.get("dtype", "float64"))
        scaler_states = {}
        target = state.pop("__target__")
        model_state = {}
        for key, value in state.items():
            if key.startswith("__scaler__"):
                _, _, rest = key.partition("__scaler__")
                node_type, _, which = rest.partition("__")
                scaler_states.setdefault(node_type, {})[which] = value
            else:
                model_state[key] = value
        model = ZeroShotModel(hidden_dim=config.hidden_dim,
                              dropout=config.dropout, seed=config.seed)
        model.load_state_dict(model_state, copy=copy)
        model.eval()
        return cls(model,
                   FeatureScalers.from_state(scaler_states),
                   TargetScaler(mean=float(target[0]), std=float(target[1])),
                   config)

    @classmethod
    def load(cls, path):
        state, metadata = load_state(path)
        return cls.from_state(state, metadata)
