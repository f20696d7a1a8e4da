"""Seeded inputs: transcript corpora, appended generations, delete sets and
query streams. Every input derives from the run's ``--seed``."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from remote_vector_index_builder_ray.fixtures import generate_queries, generate_transcripts
from remote_vector_index_builder_ray.functions.tokenizer import analyze_text


def corpus(n_turns: int, seed: int, conv_prefix: str = "") -> pd.DataFrame:
    df = generate_transcripts(n_turns, seed=seed)
    if conv_prefix:
        df["conv_id"] = conv_prefix + df["conv_id"]
    return df


def write_parquet(df: pd.DataFrame, out_dir: str, n_files: int) -> list[str]:
    """Write ``df`` as ``n_files`` parquet files in the declared transcript
    schema; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, idx in enumerate(np.array_split(np.arange(len(df)), n_files)):
        tbl = pa.Table.from_pandas(df.iloc[idx], preserve_index=False)
        tbl = tbl.set_column(tbl.schema.get_field_index("turn_idx"), "turn_idx",
                             tbl["turn_idx"].cast(pa.int32()))
        tbl = tbl.set_column(tbl.schema.get_field_index("ts"), "ts",
                             tbl["ts"].cast(pa.timestamp("us")))
        path = os.path.join(out_dir, f"part-{i:04d}.parquet")
        pq.write_table(tbl, path)
        paths.append(path)
    return paths


def dense_order(df: pd.DataFrame, base: int = 0) -> pd.DataFrame:
    """``df`` in the engine's docid order — stable (conv_id, turn_idx) — with
    a ``docid`` column starting at ``base``."""
    out = df.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    out.insert(0, "docid", np.arange(base, base + len(out), dtype=np.int64))
    return out


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


class QueryStream:
    """An endless seeded stream of single queries: successive frames of the
    reference query set (``fixtures.generate_queries``), each frame with its
    own seed. The kinds keep the reference proportions (1/8 each rare,
    stopword, absent, repeated and empty, 3/8 mixed) and the mixed and
    repeated terms its Zipf popularity over the 50k-term vocabulary, so a
    long stream keeps reaching new tail terms while the head repeats."""

    FRAME = 200

    def __init__(self, seed: int):
        self.seed = seed
        self.frames = 0
        self._texts: list[str] = []

    def next_text(self) -> str:
        if not self._texts:
            frame_seed = int(np.random.SeedSequence([self.seed, self.frames]).generate_state(1)[0])
            self._texts = generate_queries(self.FRAME, seed=frame_seed)["text"].tolist()[::-1]
            self.frames += 1
        return self._texts.pop()

    def frame(self, n: int, first_id: int = 0) -> pd.DataFrame:
        """The next ``n`` queries as the engine's (query_id, text, k) frame."""
        return pd.DataFrame({
            "query_id": np.arange(first_id, first_id + n, dtype=np.int64),
            "text": [self.next_text() for _ in range(n)],
            "k": np.full(n, 10, dtype=np.int32),
        })


def distinct_terms(texts) -> int:
    return len({t for text in texts for t in analyze_text(text)})
