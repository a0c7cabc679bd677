"""Engine configuration.

The analog of the reference's IConfiguration + ShardDefinition + treatment
density knobs (reference: src/Index/src/Configuration.cpp:41-75,
src/Common/Configuration/src/ShardDefinition.cpp:49-78,
tools/BitFunnel/src/TermTableBuilderTool.cpp:61-73), re-expressed as the
knobs an exact posting-list index actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class EngineConfig:
    # --- tokenization (reference: Document::AddTerm ring buffer,
    # src/Chunks/src/Document.cpp:105-181; max gram 7 per Term.h:79-80) ---
    max_gram: int = 2

    # --- BM25 (public Robertson/Okapi formula; the reference has no scoring
    # — north_star requires BM25 top-k) ---
    k1: float = 1.2
    b: float = 0.75

    # --- posting-list layout ---
    # docs per block for skip/block-max metadata (standard block-max WAND
    # block size; plays the role of the reference's rank-granularity
    # skipping, ByteCodeInterpreter RankDown)
    block_size: int = 128
    # df-banded treatments — the TermTreatmentFactory analog (reference:
    # src/Index/src/TermTreatmentFactory.cpp:47-55 maps IdfX10 bands to six
    # row policies; here a band picks the skip-block size AND the doc-delta
    # codec for its posting lists).  Tuple of
    # (df_upper_bound, block_size[, codec]) entries, ascending, with a
    # final (None, ...) catch-all; codec ∈ {"varint", "ef"} (default
    # varint; ef = Elias–Fano, functions/ef.py — worth it for long/head
    # lists where deltas are small and dense).  None disables
    # banding (every chunk uses ``block_size`` + varint).  Block boundaries
    # are self-describing at query time (WAND looks blocks up by
    # searchsorted on last_docs) and the codec is a per-chunk dict column,
    # so bands change the storage plan, never the results.  Example:
    #   ((256, 64), (65536, 128), (None, 256, "ef"))
    treatment_bands: tuple | None = None

    # --- the build shuffle ---
    # number of term-hash buckets = number of shuffle groups = number of
    # segment partition files. At 100 TB this is the unit of parallelism for
    # the merge shuffle and of resume granularity; scale ~ (corpus bytes /
    # 1 GiB), test-scale default kept small.
    num_buckets: int = 16
    # head-term skew split (reference isolates hot terms into private rows,
    # TermTableBuilder.cpp:268-287): postings of terms with df >
    # head_df_threshold are salted by doc_id >> salt_shift so no single
    # shuffle group exceeds ~2**salt_shift postings per term.
    head_df_threshold: int = 1 << 20
    salt_shift: int = 20

    # --- query ---
    top_k: int = 10
    max_query_terms: int = 500  # reference caps rows/query at 500 (BitFunnelTypes.h:102-104)

    # system/reserved stream ids (reference: Term::StreamId, default body=0)
    default_stream: int = 0

    # indexed streams: (name, corpus column, stream id) — the
    # StreamConfiguration analog (reference:
    # src/Common/Configuration/src/StreamConfiguration.cpp:52-143; chunk
    # format carries per-document streams, ChunkReader.cpp:126-131).
    # Stream identity folds into the stored term hash exactly like
    # Term::ComputeGeneralHash (= rawHash + streamId, Term.cpp:328-333).
    streams: tuple = (("body", "text", 0),)

    # document FACTS — the IFactSet analog (reference:
    # inc/BitFunnel/Index/IFactSet.h:30-46, src/Index/src/FactSetBase.cpp):
    # named boolean per-document predicates, ingested from a boolean corpus
    # column and indexed as synthetic terms on the reserved fact stream
    # (functions/hashing.py FACT_STREAM_ID), queryable as ``fact:<name>``
    # in the boolean language.  Facts participate in matching (AND/OR/NOT)
    # but contribute ZERO BM25 score — they are filters, like the
    # reference's rank-0 fact rows (its own soft delete is such a fact).
    # Tuple of (fact_name, corpus_column) pairs.
    facts: tuple = ()

    # stored fields (the Lucene stored-field / ES _source analog): corpus
    # columns copied into a per-segment docstore/ parquet sidecar during
    # the build's single corpus pass, served by doc id with row-group
    # pruning (build/docstore.py).  Empty = nothing stored (serving that
    # needs text re-reads the corpus, as before).
    store_fields: tuple = ()

    extra: dict = field(default_factory=dict, compare=False)
