"""Multimodal column stages: opaque binary payloads + typed metadata.

Image/audio/video payloads are ``binary`` columns with metadata columns
(mime, width/height/duration). The Ray-side plumbing — schema, stateless
``map_batches`` stage shape, small batch sizes for wide rows, output
layout — is real and tested; the actual codec calls are STUBBED because no
image/audio libraries exist in this environment:

* ``MediaDecode(backend="real")`` raises NotImplementedError at the decode
  call site (clearly marked), exactly where PIL/ffmpeg would plug in.
* ``backend="fake"`` is a deterministic stand-in (md5-derived "pixel
  statistics", reproducible by a DuckDB oracle over the persisted media
  table) so pipelines, tests AND the driver's SQL correctness gate exercise
  the full dataflow.

Batch sizing note (memory-aware): payload rows are wide, so stages here use
small ``batch_size`` (default 64) — a batch per concurrent task must fit the
worker heap, per the Ray Data guidance for large binary rows.

Execution: each stage object is mapped as stateless tasks (the instance is
the task's function; its fake backend has no init cost). A real decoder
whose construction is measured to be costly is what would justify an
actor pool here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("mime", pa.string()),
        ("payload", pa.binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
    ]
)

FEATURE_DIM = 16


def synth_media_table(n: int, seed: int = 5) -> pa.Table:
    """Deterministic fake media fixture (payload = seeded bytes)."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=int(s), dtype=np.uint8).tobytes()
                for s in rng.integers(256, 4096, size=n)]
    return pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "mime": pa.array(["image/png" if i % 3 else "image/jpeg" for i in range(n)]),
            "payload": pa.array(payloads, type=pa.binary()),
            "width": pa.array(rng.integers(16, 512, n).astype(np.int32)),
            "height": pa.array(rng.integers(16, 512, n).astype(np.int32)),
        }
    )


class MediaDecode:
    """Stage: decode payload -> per-media feature vector.

    A real backend would hold decoder state (model weights, codec contexts)
    built in ``__init__`` — the reason this is a callable CLASS, mirroring
    the reference's GPU-resident index builder state
    (``faiss_gpu_index_cagra_builder.py:227-279``).
    """

    def __init__(self, backend: str = "fake"):
        self.backend = backend
        if backend == "real":
            # STUB: the real decoder would be constructed here:
            #   import PIL.Image / torchaudio / av ...
            pass

    def _decode_fake(self, payload: bytes) -> np.ndarray:
        # deterministic pseudo-decode, SQL-oracle-checkable: feature block j
        # (4 values) = big-endian uint32s of md5(HEX(payload) || ':' || j),
        # scaled to [0,1). DuckDB computes the identical value via
        # ('0x' || substr(md5(hex(payload) || ':j'), 1+8k, 8))::UBIGINT.
        hx = payload.hex().upper()
        out = np.empty(FEATURE_DIM, np.float64)
        for j in range(FEATURE_DIM // 4):
            d = hashlib.md5(f"{hx}:{j}".encode()).digest()
            out[4 * j : 4 * j + 4] = np.frombuffer(d, dtype=">u4").astype(np.float64) / 2**32
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.backend == "real":
            raise NotImplementedError(
                "real media decode requires an image/audio library not present "
                "in this environment; plug PIL/ffmpeg in here"
            )
        payloads = batch["payload"].to_pylist()
        feats = np.stack([self._decode_fake(p) for p in payloads]) if payloads else np.zeros((0, FEATURE_DIM))
        n = batch.num_rows
        offsets = pa.array(np.arange(0, (n + 1) * FEATURE_DIM, FEATURE_DIM, dtype=np.int32))
        return pa.table(
            {
                "media_id": batch["media_id"],
                "mime": batch["mime"],
                "feature": pa.ListArray.from_arrays(offsets, pa.array(feats.ravel(), type=pa.float64())),
                "payload_bytes": pa.array([len(p) for p in payloads], type=pa.int64()),
            }
        )


class MediaResize:
    """Stage shape for resize/frame-sample (stubbed identically)."""

    def __init__(self, target: int = 224, backend: str = "fake"):
        self.target = target
        self.backend = backend

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.backend == "real":
            raise NotImplementedError("real resize needs an imaging library; plug in here")
        w = batch["width"].to_numpy(zero_copy_only=False)
        h = batch["height"].to_numpy(zero_copy_only=False)
        scale = self.target / np.maximum(w, h).astype(np.float64)
        return (
            batch.append_column("out_width", pa.array((w * scale).astype(np.int32)))
            .append_column("out_height", pa.array((h * scale).astype(np.int32)))
        )


def synth_video_table(n: int, seed: int = 7) -> pa.Table:
    """Deterministic fake video fixture: opaque payload + duration/fps metadata."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=int(s), dtype=np.uint8).tobytes()
                for s in rng.integers(1024, 8192, size=n)]
    return pa.table(
        {
            "media_id": pa.array(np.arange(n, dtype=np.int64)),
            "mime": pa.array(["video/mp4"] * n),
            "payload": pa.array(payloads, type=pa.binary()),
            "duration_ms": pa.array(rng.integers(500, 30_000, n).astype(np.int64)),
            "fps": pa.array(rng.choice([24.0, 25.0, 30.0], n)),
        }
    )


class FrameSample:
    """Stage: sample frames at ``target_fps`` from each video row.

    One input row fans out to ceil(duration * target_fps) output rows
    (media_id, frame_idx, frame_ts_ms, feature) — the flat-map shape a real
    ffmpeg frame extractor would produce. Decode is stubbed like MediaDecode:
    ``backend="real"`` raises NotImplementedError at the exact plug-in point;
    ``backend="fake"`` derives deterministic per-frame features from
    md5(hex(payload), frame_idx). Small batches: each input row multiplies.
    """

    def __init__(self, target_fps: float = 1.0, backend: str = "fake"):
        self.target_fps = target_fps
        self.backend = backend
        if backend == "real":
            # STUB: open codec contexts here (av/ffmpeg)
            pass

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.backend == "real":
            raise NotImplementedError(
                "real frame extraction requires a video library not present "
                "in this environment; plug av/ffmpeg in here"
            )
        ids = batch["media_id"].to_numpy(zero_copy_only=False)
        dur = batch["duration_ms"].to_numpy(zero_copy_only=False)
        payloads = batch["payload"].to_pylist()
        out_id, out_idx, out_ts, feats = [], [], [], []
        step_ms = 1000.0 / self.target_fps
        for i in range(batch.num_rows):
            n_frames = max(1, int(np.ceil(dur[i] / step_ms)))
            hx = payloads[i].hex().upper()
            for f in range(n_frames):
                out_id.append(int(ids[i]))
                out_idx.append(f)
                out_ts.append(int(round(f * step_ms)))
                # per-frame fake feature, SQL-oracle-checkable like MediaDecode:
                # block j = big-endian uint32s of md5(HEX(payload) || ':f:j')
                fv = np.empty(FEATURE_DIM, np.float64)
                for j in range(FEATURE_DIM // 4):
                    d = hashlib.md5(f"{hx}:{f}:{j}".encode()).digest()
                    fv[4 * j : 4 * j + 4] = np.frombuffer(d, dtype=">u4").astype(np.float64) / 2**32
                feats.append(fv)
        fm = np.stack(feats) if feats else np.zeros((0, FEATURE_DIM))
        offsets = pa.array(np.arange(0, (len(out_id) + 1) * FEATURE_DIM, FEATURE_DIM, dtype=np.int32))
        return pa.table(
            {
                "media_id": pa.array(out_id, type=pa.int64()),
                "frame_idx": pa.array(out_idx, type=pa.int32()),
                "frame_ts_ms": pa.array(out_ts, type=pa.int64()),
                "feature": pa.ListArray.from_arrays(offsets, pa.array(fm.ravel(), type=pa.float64())),
            }
        )


def sample_frames(
    ds: ray.data.Dataset, target_fps: float = 1.0, backend: str = "fake", batch_size: int = 16
) -> ray.data.Dataset:
    """Frame-sampling pipeline stage: tiny batches (row fan-out is ~duration
    x fps), stateless tasks, zero-copy Arrow in/out."""
    return ds.map_batches(
        FrameSample(target_fps, backend), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=batch_size,
    )


def decode_features(ds: ray.data.Dataset, backend: str = "fake", batch_size: int = 64) -> ray.data.Dataset:
    """The canonical multimodal pipeline stage: small batches (wide rows),
    stateless tasks, zero-copy Arrow in/out."""
    return ds.map_batches(
        MediaDecode(backend), batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size,
    )
