"""Text-analysis stages for a web-scale training-data pipeline: token
counting, quality scoring, language ID, document fingerprinting, simhash.

All hot paths are vectorized (pyarrow.compute regex kernels / NumPy over
Arrow buffers); language-ID is an actor-pool stage whose per-language
patterns compile once in ``__init__``.  The token/quality metrics are
defined with SQL-expressible arithmetic so the DuckDB oracle can verify
them value-for-value.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .geocode import hash64_utf8
from . import guard
from .guard import tree_combine

_PUNCT_RE = r"[.,!?;:]"
_TOKEN_RE = r"\S+"
# BPE-ish word/punct splitter (GPT-2-style, simplified to what both RE2
# (pyarrow) and this engine support)
_BPE_RE = r"'s|'t|'re|'ve|'m|'ll|'d| ?\w+| ?[^\s\w]+"


def token_stats_batch(
    batch: pa.Table, text_col: str = "text", include_bpe: bool = True
) -> pa.Table:
    """Adds n_chars, n_tokens (whitespace runs), n_bpe_tokens, n_punct.

    n_chars/n_tokens/n_punct come from ``text_class_counts`` (byte classes,
    exactly equivalent to the regex classes; null text counts 0); the
    BPE-ish tokenizer count stays an RE2 scan (pyarrow kernel).

    Oracle equivalence (DuckDB): ``length(text)``,
    ``len(regexp_extract_all(text, '\\S+'))``,
    ``len(regexp_extract_all(text, '[.,!?;:]'))``.
    """
    t = batch[text_col]
    c = text_class_counts(t)
    batch = batch.append_column("n_chars", pa.array(c["n_chars"], pa.int64()))
    batch = batch.append_column("n_tokens", pa.array(c["n_tokens"], pa.int64()))
    if include_bpe:
        batch = batch.append_column(
            "n_bpe_tokens",
            pc.cast(pc.count_substring_regex(t, _BPE_RE), pa.int64()),
        )
    return batch.append_column("n_punct", pa.array(c["n_punct"], pa.int64()))


# --- byte classes for the vectorized text kernels -------------------------
# Unicode whitespace outside ASCII can't collide with these byte classes
# (UTF-8 continuation/lead bytes are >= 0x80), so byte-level counting is
# EXACTLY equivalent to the RE2 character classes used by the oracle SQL:
#   [A-Za-z]  → ASCII letter bytes: ((b | 0x20) - 97) < 26 in uint8
#   [.,!?;:]  → those ASCII bytes
#   \s (RE2)  → [\t\n\x0b\x0c\r ]: b == 32 or (b - 9) < 5 in uint8
#   utf8_length → non-continuation bytes ((b & 0xC0) != 0x80), as Arrow counts
# Each class is a one-byte mask computed with uint8 arithmetic (a 256-entry
# table lookup goes through an intp index, several times slower).


def text_class_counts(col) -> dict[str, np.ndarray]:
    """Vectorized per-document counts straight off the Arrow byte buffer:
    n_chars (UTF-8 chars), n_alpha, n_punct, n_tokens (\\S+ runs).  Null
    rows count as empty.  uint8 arithmetic gives one bool mask per class,
    and one int32 ``add.reduceat`` over the document starts sums each mask
    per document (documents are < 2 GiB) — no regex, no per-row Python, no
    per-byte array wider than one byte."""
    data, starts, ends = _byte_segments(col)
    if col.null_count:
        ends = np.where(pc.is_valid(col).to_numpy(zero_copy_only=False), ends, starts)
    n_chars = pc.fill_null(pc.utf8_length(col), 0).to_numpy().astype(np.int64)
    base, end = (int(starts[0]), int(ends[-1])) if len(starts) else (0, 0)
    seg = data[base:end]
    s, e = starts - base, ends - base
    nonempty = e > s
    # docs are contiguous, so doc i spans [s_i, s_i+1) for reduceat; the
    # docs from k on start at the end of seg and are all empty
    k = int(np.searchsorted(s, seg.size))

    def count(mask):
        per_doc = np.zeros(len(s), dtype=np.int64)
        if k:
            per_doc[:k] = np.add.reduceat(mask.view(np.uint8), s[:k], dtype=np.int32)
        return np.where(nonempty, per_doc, 0)  # reduceat gives mask[s_i] if empty

    u8 = np.uint8
    space = (seg == u8(32)) | ((seg - u8(9)) < u8(5))
    # token start: a non-space byte at a string start or after a space byte
    run_start = ~space
    run_start[1:] &= space[:-1]
    first = s[nonempty]
    run_start[first] = ~space[first]
    punct = seg == u8(46)
    for c in b",!?;:":
        punct |= seg == u8(c)
    return {
        "n_chars": n_chars,
        "n_alpha": count(((seg | u8(0x20)) - u8(97)) < u8(26)),
        "n_punct": count(punct),
        "n_tokens": count(run_start),
    }


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Adds alpha_ratio, punct_ratio, mean_token_len, quality_score — pure
    double arithmetic over character-class counts, replicated 1:1 in the
    oracle SQL (regex classes there, equivalent byte tables here — see
    ``text_class_counts``) so results hash-match:

        alpha_ratio     = n_alpha / (n_chars + 1)
        punct_ratio     = n_punct / (n_tokens + 1)
        mean_token_len  = n_chars / (n_tokens + 1)
        quality_score   = alpha_ratio * (1.0 - punct_ratio)
    """
    c = text_class_counts(batch[text_col])
    n_chars = c["n_chars"].astype(np.float64)
    n_alpha = c["n_alpha"].astype(np.float64)
    n_punct = c["n_punct"].astype(np.float64)
    n_tokens = c["n_tokens"].astype(np.float64)
    alpha_ratio = n_alpha / (n_chars + 1.0)
    punct_ratio = n_punct / (n_tokens + 1.0)
    batch = batch.append_column("alpha_ratio", pa.array(alpha_ratio))
    batch = batch.append_column("punct_ratio", pa.array(punct_ratio))
    batch = batch.append_column(
        "mean_token_len", pa.array(n_chars / (n_tokens + 1.0))
    )
    return batch.append_column(
        "quality_score", pa.array(alpha_ratio * (1.0 - punct_ratio))
    )


class LangId:
    """Actor-pool stage: n-gram/stopword-heuristic language ID over
    {en, de, fr, es, zh}.  Profiles (compiled alternation regexes + CJK
    range) are built ONCE per actor in __init__; __call__ is vectorized
    pyarrow regex counting per batch.  Adds ``lang_pred`` and
    ``lang_conf``."""

    _STOPS = {
        "en": ["the", "and", "of", "to", "in", "is", "that", "with", "for", "it"],
        "de": ["der", "die", "und", "das", "ist", "nicht", "mit", "ein", "zu", "den"],
        "fr": ["le", "la", "les", "et", "des", "est", "une", "dans", "que", "pour"],
        "es": ["el", "la", "los", "las", "de", "que", "es", "una", "por", "para"],
    }

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        # one word-boundary alternation per language (RE2-compatible)
        self.patterns = {
            lang: r"\b(" + "|".join(words) + r")\b"
            for lang, words in self._STOPS.items()
        }
        self.cjk = r"[一-鿿]"

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(batch[self.text_col])
        n_tokens = pc.cast(
            pc.count_substring_regex(t, _TOKEN_RE), pa.float64()
        ).to_numpy(zero_copy_only=False)
        denom = np.maximum(n_tokens, 1.0)
        scores = []
        langs = []
        for lang, pat in self.patterns.items():
            c = pc.cast(pc.count_substring_regex(t, pat), pa.float64()).to_numpy(
                zero_copy_only=False
            )
            scores.append(c / denom)
            langs.append(lang)
        # zh: CJK character density (per char, not per token)
        n_chars = pc.cast(pc.utf8_length(t), pa.float64()).to_numpy(
            zero_copy_only=False
        )
        cjk = pc.cast(pc.count_substring_regex(t, self.cjk), pa.float64()).to_numpy(
            zero_copy_only=False
        )
        scores.append(cjk / np.maximum(n_chars, 1.0) * 2.0)
        langs.append("zh")
        m = np.stack(scores)  # (L, N)
        best = np.argmax(m, axis=0)
        conf = m[best, np.arange(m.shape[1])]
        pred = np.array(langs, dtype=object)[best]
        pred = np.where(conf <= 0.0, "und", pred)
        batch = batch.append_column("lang_pred", pa.array(pred.tolist(), pa.string()))
        return batch.append_column("lang_conf", pa.array(conf, pa.float64()))


def _byte_segments(arr: pa.Array | pa.ChunkedArray):
    """(data uint8 array, starts, ends) views of a utf8 column's buffers."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks() if arr.num_chunks != 1 else arr.chunk(0)
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype, count=len(arr) + 1 + arr.offset)
    offsets = offsets[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    data = (
        np.frombuffer(bufs[2], dtype=np.uint8)
        if bufs[2] is not None
        else np.empty(0, np.uint8)
    )
    return data, offsets[:-1], offsets[1:]


def fingerprint_batch(
    batch: pa.Table, text_col: str = "text", window: int = 8
) -> pa.Table:
    """Adds ``fingerprint`` (uint64): min rolling Rabin-Karp hash over all
    byte windows of length ``window`` (winnowing-style document signature).
    Vectorized: one pass of uint64 NumPy ops over the column's whole byte
    buffer; no per-character Python.  Documents shorter than the window
    fall back to the full-text polynomial hash."""
    data, starts, ends = _byte_segments(batch[text_col])
    out = hash64_utf8(batch[text_col])
    long = np.flatnonzero(ends - starts >= window)
    if long.size:
        b = np.uint64(257)
        with np.errstate(over="ignore"):
            pw = np.multiply.accumulate(
                np.concatenate([[np.uint64(1)], np.full(window - 1, b)]),
                dtype=np.uint64,
            )
            # hash of every length-`window` byte window in the whole buffer:
            # h[i] = sum_{j<window} data[i+j] * b^(window-1-j)  (mod 2^64)
            h = np.zeros(data.size - window + 1, dtype=np.uint64)
            for j in range(window):
                h += data[j : data.size - window + 1 + j].astype(np.uint64) * pw[
                    window - 1 - j
                ]
        # min over each long doc's windows [s, e - window + 1): the even
        # slots of one reduceat over the interleaved bounds
        idx = np.stack([starts[long], ends[long] - window + 1], axis=1).ravel()
        if idx[-1] == h.size:  # out of range; the last slot runs to the end
            idx = idx[:-1]
        out[long] = np.minimum.reduceat(h, idx)[::2]
    return batch.append_column("fingerprint", pa.array(out, pa.uint64()))


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Adds ``simhash`` (uint64): 64-bit SimHash over whitespace tokens,
    token hashes via the engine's polynomial hash.  The bit-vote loop is
    vectorized over all tokens of the batch at once.  Null text hashes
    like the empty string (no tokens → signature 0)."""
    t = pc.utf8_lower(pc.fill_null(batch[text_col], ""))
    toks = pc.split_pattern_regex(t, r"\s+")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat_all = pc.list_flatten(toks)
    doc_ids = np.repeat(np.arange(len(batch)), counts)
    nonempty = pc.not_equal(flat_all, "")
    flat = flat_all.filter(nonempty)
    doc_ids = doc_ids[nonempty.to_numpy(zero_copy_only=False)]
    th = hash64_utf8(flat) if len(flat) else np.empty(0, np.uint64)
    votes = np.zeros((len(batch), 64), dtype=np.int64)
    for bit in range(64):
        bitval = ((th >> np.uint64(bit)) & np.uint64(1)).astype(np.int64) * 2 - 1
        np.add.at(votes[:, bit], doc_ids, bitval)
    sim = np.zeros(len(batch), dtype=np.uint64)
    for bit in range(64):
        sim |= (votes[:, bit] > 0).astype(np.uint64) << np.uint64(bit)
    return batch.append_column("simhash", pa.array(sim, pa.uint64()))


def html_extract_batch(
    batch: pa.Table, html_col: str = "html", out_col: str = "extracted_text"
) -> pa.Table:
    """Vectorized HTML→text extraction: decode the binary payload as UTF-8
    and strip ``<...>`` tags with one Arrow RE2 pass — no per-row Python.

    This is the stage the input-hint's per-row invariant targets: the
    extracted text must be BYTE-IDENTICAL per url to the corpus's text
    column (verified by the ``html_extract`` query's value-hash against
    the DuckDB oracle).  A real-world extractor would add entity decoding
    and script/style elision behind the same batch signature."""
    html_str = pc.cast(batch[html_col], pa.string())
    stripped = pc.replace_substring_regex(html_str, "<[^>]*>", "")
    return batch.append_column(out_col, stripped)


# ---------------------------------------------------------------------------
# corpus document frequency (vocabulary / IDF stats) — round-3 operator
# ---------------------------------------------------------------------------

def doc_frequency_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """map_batches stage: documents → (token, df) partial rows, where df =
    number of DISTINCT documents in this batch containing the token.

    Because a document never spans batches, the per-batch distinct is
    globally exact — partials sum associatively in the downstream groupby
    (the same combiner-before-shuffle shape as exact_dedup).  Entirely
    Arrow-kernel: lower → regex split → flatten with doc indices →
    ``group_by`` distinct → ``group_by`` count.  No Python row loop.

    Null text contributes no tokens (fill_null("") — matching the SQL
    oracle, where unnest of a NULL list emits no rows)."""
    t = pc.utf8_lower(pc.fill_null(batch[text_col], ""))
    toks = pc.split_pattern_regex(t, r"\s+")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    doc_ids = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
    nonempty = pc.not_equal(flat, "")
    flat = flat.filter(nonempty)
    doc_ids = doc_ids[nonempty.to_numpy(zero_copy_only=False)]
    pairs = pa.table({"d": pa.array(doc_ids), "token": flat})
    distinct = pairs.group_by(["d", "token"]).aggregate([])
    df = distinct.group_by("token").aggregate([("d", "count")])
    return pa.table(
        {
            "token": df["token"],
            "df": pc.cast(df["d_count"], pa.int64()),
        }
    )


def document_frequency(
    ds, *, text_col: str = "text", top_n: int = 50
):
    """Corpus document-frequency table → top ``top_n`` (token, df) rows,
    df descending, token ascending on ties (deterministic).

    Shape: in-batch distinct-doc partials → one hash aggregate over the
    vocabulary (rows shuffled = distinct tokens per block, never token
    instances) → local top-n per block → blocks×n driver merge.  This is
    the standard IDF / vocabulary-statistics pass of a text-corpus
    pipeline at any scale.

    The slim (token, df) partials are coalesced to one block per cluster
    CPU (``guard.shuffle_partitions``) before the aggregate: the
    aggregate's partition count follows its input block count, and far
    more partitions than distinct tokens yields empty SCHEMALESS
    partitions (sandbox lesson #20 — mixed-schema RefBundles downstream)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    partials = ds.map_batches(
        doc_frequency_batch, batch_format="pyarrow", fn_kwargs={"text_col": text_col}
    )
    # the sort-aggregate's partition count follows its input block count;
    # coalesce the slim partials first so partitions ≪ vocabulary (an
    # aggregate with more partitions than distinct keys emits empty
    # SCHEMALESS partitions — sandbox lesson #20)
    partials = partials.repartition(guard.shuffle_partitions())
    agg = partials.groupby("token").aggregate(Sum("df", alias_name="df"))

    def local_top(b: pa.Table) -> pa.Table:
        # the aggregate emits SCHEMALESS empty blocks for empty hash
        # partitions (sandbox lesson #20) — normalize every output block to
        # (token: string, df: int64) so downstream consumers never see a
        # mixed-schema RefBundle
        if "token" not in b.column_names:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                }
            )
        b = pa.table(
            {
                "token": pc.cast(b["token"], pa.string()),
                "df": pc.cast(b["df"], pa.int64()),
            }
        )
        if len(b) <= top_n:
            return b
        # vectorized multi-key sort (a vocabulary-sized block would make a
        # Python key-function sort the operator's hot spot)
        order = pc.sort_indices(
            b, sort_keys=[("df", "descending"), ("token", "ascending")]
        )
        return b.take(order.slice(0, top_n))

    local = agg.map_batches(local_top, batch_format="pyarrow").to_pandas()
    local = local.sort_values(
        ["df", "token"], ascending=[False, True], kind="stable"
    ).head(top_n)
    return local.reset_index(drop=True)[["token", "df"]]


def term_freq_batch(
    batch: pa.Table, *, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """documents → (doc_id, token, tf) rows: per-document term frequencies
    with the SAME tokenization as :func:`doc_frequency_batch` (lower →
    ``\\s+`` split → drop empties).  Arrow ``group_by`` count — no Python
    row loop."""
    t = pc.utf8_lower(pc.fill_null(batch[text_col], ""))
    toks = pc.split_pattern_regex(t, r"\s+")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    idx = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
    nonempty = pc.not_equal(flat, "")
    flat = flat.filter(nonempty)
    idx = idx[nonempty.to_numpy(zero_copy_only=False)]
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)[idx]
    pairs = pa.table(
        {"doc_id": pa.array(ids), "token": flat, "one": pa.array(np.ones(len(ids), np.int64))}
    )
    g = pairs.group_by(["doc_id", "token"]).aggregate([("one", "sum")])
    return pa.table(
        {
            "doc_id": g["doc_id"],
            "token": g["token"],
            "tf": pc.cast(g["one_sum"], pa.int64()),
        }
    )


def _doc_topk_tfidf(b: pa.Table, k: int) -> pa.Table:
    """Per-doc top-k by (tfidf DESC, token ASC) within one table —
    associative (re-applying after a merge of partials gives the global
    top-k), so it serves as both the local kernel and the tree-combine
    step.  Pandas multi-key sort (C-vectorized; tokens are strings, so the
    int-id lexsort kernel in stages/rank.py does not apply)."""
    if len(b) == 0:
        return b
    df = b.to_pandas()
    df = df.sort_values(
        ["doc_id", "tfidf", "token"],
        ascending=[True, False, True],
        kind="stable",
    ).reset_index(drop=True)
    ids = df["doc_id"].to_numpy()
    starts = np.flatnonzero(np.concatenate([[True], ids[1:] != ids[:-1]]))
    run_of = np.searchsorted(starts, np.arange(len(df)), side="right") - 1
    rank = np.arange(len(df)) - starts[run_of]
    out = df[rank < k].reset_index(drop=True)
    out["rank"] = (rank[rank < k] + 1).astype(np.int64)
    return pa.Table.from_pandas(
        out[["doc_id", "rank", "token", "tfidf"]], preserve_index=False
    )


def tfidf_top_terms(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
):
    """Per-document top-``k`` TF-IDF terms → Dataset(doc_id, rank, token,
    tfidf), tfidf = tf · ln(N/df), ties broken by token ascending.

    Two regimes on the DF (vocabulary) side:

    * vocabulary ≤ ``guard.DRIVER_ROWS``: the (token → df) table
      broadcasts once via ``ray.put`` and everything — term counts, scores,
      per-doc top-k — happens in ONE ``map_batches`` pass over the
      documents (a document never spans batches, so per-batch per-doc
      top-k is globally exact).  No shuffle at all.
    * larger vocabularies: the exploded (doc, token, tf) rows hash-join
      the DF Dataset on token (the join scatters a document's tokens
      across blocks), then local per-batch top-k tree-combines
      (associative, ``guard.tree_combine``) until the surviving candidates
      fit the driver budget — the same collect as ``rank.topk_per_group``.

    Both regimes produce identical rows (tested).  N = document count."""
    import ray
    import ray.data as rd

    from ray.data.aggregate import Sum

    n_docs = ds.count()
    partials = ds.map_batches(
        doc_frequency_batch, batch_format="pyarrow", fn_kwargs={"text_col": text_col}
    ).repartition(guard.shuffle_partitions())
    df_ds = partials.groupby("token").aggregate(Sum("df", alias_name="df")).materialize()
    vocab_n = df_ds.count()

    if vocab_n <= guard.DRIVER_ROWS:
        dfp = df_ds.to_pandas()
        order = np.argsort(dfp["token"].to_numpy())
        tok_sorted = dfp["token"].to_numpy()[order]
        df_sorted = dfp["df"].to_numpy(np.int64)[order]
        ref = ray.put((tok_sorted, df_sorted)) if ray.is_initialized() else (
            tok_sorted, df_sorted
        )

        def score(b: pa.Table, *, _ref=ref) -> pa.Table:
            tf = term_freq_batch(b, id_col=id_col, text_col=text_col)
            if len(tf) == 0:
                return pa.table(
                    {
                        "doc_id": pa.array([], pa.int64()),
                        "rank": pa.array([], pa.int64()),
                        "token": pa.array([], pa.string()),
                        "tfidf": pa.array([], pa.float64()),
                    }
                )
            toks, dfs = _ref if isinstance(_ref, tuple) else ray.get(_ref)
            t = np.asarray(tf["token"].to_pylist(), dtype=object)
            pos = np.searchsorted(toks, t)
            dfv = dfs[np.clip(pos, 0, len(dfs) - 1)].astype(np.float64)
            tfidf = tf["tf"].to_numpy(zero_copy_only=False) * np.log(n_docs / dfv)
            scored = tf.append_column("tfidf", pa.array(tfidf, pa.float64()))
            return _doc_topk_tfidf(scored, k)

        return ds.map_batches(score, batch_format="pyarrow")

    # large-vocabulary regime: explode → hash join on token → tree top-k
    from .joins import hash_join

    tf_ds = ds.map_batches(
        term_freq_batch,
        batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "text_col": text_col},
    )
    joined = hash_join(tf_ds, df_ds, on="token", broadcast=False).materialize()

    def add_score(b: pa.Table) -> pa.Table:
        dfv = b["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        tfidf = b["tf"].to_numpy(zero_copy_only=False) * np.log(n_docs / dfv)
        return b.append_column("tfidf", pa.array(tfidf, pa.float64()))

    topk = functools.partial(_doc_topk_tfidf, k=k)
    frame, _ = tree_combine(
        joined.map_batches(add_score, batch_format="pyarrow").map_batches(
            topk, batch_format="pyarrow"
        ),
        topk,
    )
    return rd.from_arrow(topk(pa.Table.from_pandas(frame, preserve_index=False)))


def repetition_ratio_batch(
    batch: pa.Table, text_col: str = "text", n: int = 8
) -> pa.Table:
    """Adds ``rep_ratio`` — the Gopher-style within-document repetition
    signal: 1 − (distinct word n-grams / total word n-grams), 0 for docs
    with ≤ one gram.  Boilerplate/spam pages repeat their own n-grams and
    score high; clean prose scores near 0.

    Fully vectorized off the shared word-n-gram kernel
    (``dedup.word_ngram_hashes``): one lexsort over (doc, gram-hash) and
    two bincounts — no per-row Python.  Null text scores 0."""
    from .dedup import word_ngram_hashes

    t = pc.fill_null(batch[text_col], "")
    h, d = word_ngram_hashes(t, n)
    total = np.bincount(d, minlength=len(batch)) if h.size else np.zeros(
        len(batch), np.int64
    )
    if h.size:
        order = np.lexsort((h, d))
        ds_, hs_ = d[order], h[order]
        new = np.concatenate(
            [[True], (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])]
        )
        distinct = np.bincount(ds_[new], minlength=len(batch))
    else:
        distinct = total
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(total > 0, 1.0 - distinct / total, 0.0)
    return batch.append_column("rep_ratio", pa.array(ratio, pa.float64()))


# ---------------------------------------------------------------------------
# PII scrubbing (round 4) — training corpora redact contact details before
# anything downstream sees the text.  Pure RE2 kernels (Arrow's regex
# engine), so the DuckDB oracle (also RE2) reproduces the semantics exactly.
# ---------------------------------------------------------------------------

# (name, RE2 pattern, replacement) — counts are taken on the ORIGINAL text
# per pattern, then replacements apply sequentially (replacement tokens
# contain no digits/@, so later patterns never match earlier replacements)
DEFAULT_PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\b\d{3}-\d{4}\b", "<PHONE>"),
)


def pii_scrub_batch(
    batch: pa.Table,
    *,
    text_col: str = "text",
    patterns=DEFAULT_PII_PATTERNS,
) -> pa.Table:
    """Redact PII in ``text_col`` in place and append one ``n_<name>``
    int64 count column per pattern.  Fully vectorized — one
    ``count_substring_regex`` + one ``replace_substring_regex`` per
    pattern over the whole batch; RE2 compiles once per kernel call, so no
    per-actor state is needed (stateless ``map_batches`` stage)."""
    orig = pc.fill_null(batch[text_col], "")
    scrubbed = orig
    counts = {}
    for name, rx, repl in patterns:
        counts[f"n_{name}"] = pc.cast(pc.count_substring_regex(orig, rx), pa.int64())
        scrubbed = pc.replace_substring_regex(scrubbed, rx, repl)
    batch = batch.set_column(
        batch.schema.get_field_index(text_col), text_col, scrubbed
    )
    for k, v in counts.items():
        batch = batch.append_column(k, v)
    return batch


# ---------------------------------------------------------------------------
# Line-level boilerplate removal (round 4) — the C4/RefinedWeb shape: a
# line occurring in many documents (nav bars, cookie banners, copyright
# footers) is boilerplate and is dropped from every document.
# ---------------------------------------------------------------------------

def line_df_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """documents → (line_hash, ndocs) partials: split on newline, hash each
    line, count DISTINCT docs per line within the batch (the combiner —
    the shuffle then moves one row per distinct line per block).  Empty
    lines are ignored (never treated as boilerplate)."""
    from .geocode import hash64_utf8

    t = pc.fill_null(batch[text_col], "")
    lines = pc.split_pattern(t, "\n")
    counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(lines)
    doc_idx = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
    nonempty = pc.not_equal(flat, "")
    flat = flat.filter(nonempty)
    doc_idx = doc_idx[nonempty.to_numpy(zero_copy_only=False)]
    if len(flat) == 0:
        return pa.table(
            {"line_hash": pa.array([], pa.int64()), "ndocs": pa.array([], pa.int64())}
        )
    h = hash64_utf8(flat).view(np.int64)  # int64 transport: see incremental.py
    # distinct (line, doc) then count docs per line — one lexsort
    order = np.lexsort((doc_idx, h))
    hs, ds_ = h[order], doc_idx[order]
    new_pair = np.concatenate([[True], (hs[1:] != hs[:-1]) | (ds_[1:] != ds_[:-1])])
    hs, ds_ = hs[new_pair], ds_[new_pair]
    uniq, cnt = np.unique(hs, return_counts=True)
    return pa.table(
        {"line_hash": pa.array(uniq, pa.int64()), "ndocs": pa.array(cnt, pa.int64())}
    )


def remove_boilerplate_lines(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_docs: int = 3,
):
    """→ Dataset ``(doc_id, text, n_removed)``: drop every non-empty line
    that occurs in ≥ ``min_docs`` distinct documents; remaining lines are
    rejoined with ``\\n`` in original order.

    Scale shape: per-batch distinct partials → a line-hash-keyed
    ``groupby().Sum`` (exact distinct-doc counts: a document is one row,
    so it lives in exactly one batch and is counted once) → the
    boilerplate set (ONLY lines above the frequency threshold — tiny by
    construction: boilerplate is the head of the line-frequency
    distribution, unique lines never leave the aggregate) is broadcast
    once via ``ray.put`` and each batch filters its lines vectorized,
    rejoining with one ``binary_join`` kernel call.  Partials coalesce to
    one block per cluster CPU before the aggregate — schemaless-empty-
    partition hazard (sandbox lesson 22)."""
    import ray
    from ray.data.aggregate import Sum

    from .geocode import hash64_utf8

    partials = ds.map_batches(
        line_df_batch, batch_format="pyarrow", fn_kwargs=dict(text_col=text_col)
    ).repartition(guard.shuffle_partitions())
    df_tab = (
        partials.groupby("line_hash")
        .aggregate(Sum("ndocs", alias_name="ndocs"))
        .map_batches(
            lambda t, _k=min_docs: t.filter(pc.greater_equal(t["ndocs"], _k)),
            batch_format="pyarrow",
        )
        .to_pandas()  # boilerplate-set-sized, not corpus-sized
    )
    # an all-empty filter result surfaces as a column-less frame
    if "line_hash" in df_tab.columns:
        boiler = np.sort(df_tab["line_hash"].to_numpy().astype(np.int64))
    else:
        boiler = np.empty(0, dtype=np.int64)
    bref = ray.put(boiler)

    def scrub(batch: pa.Table, _b=bref) -> pa.Table:
        bl = ray.get(_b)
        t = pc.fill_null(batch[text_col], "")
        lines = pc.split_pattern(t, "\n")
        counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(lines)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        doc_idx = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
        if len(flat) and bl.size:
            h = hash64_utf8(flat).view(np.int64)
            pos = np.searchsorted(bl, h)
            pos[pos == bl.size] = 0
            is_boiler = bl[pos] == h
            # empty lines are never boilerplate (excluded from the DF)
            empty = pc.equal(flat, "").to_numpy(zero_copy_only=False)
            is_boiler &= ~empty
        else:
            is_boiler = np.zeros(len(flat), dtype=bool)
        removed = np.zeros(len(batch), dtype=np.int64)
        np.add.at(removed, doc_idx[is_boiler], 1)
        keep = ~is_boiler
        # vectorized per-doc rejoin: list array over the kept lines, one
        # binary_join kernel call (no per-row Python)
        kept = flat.filter(pa.array(keep))
        bounds = np.searchsorted(doc_idx[keep], np.arange(len(batch) + 1))
        la = pa.LargeListArray.from_arrays(pa.array(bounds, pa.int64()), kept)
        return pa.table(
            {
                id_col: batch[id_col],
                text_col: pc.binary_join(la, "\n"),
                "n_removed": pa.array(removed),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow")


def normalize_text_batch(
    batch: pa.Table, text_col: str = "text", out_col: str = "norm_text"
) -> pa.Table:
    """Unicode text normalization — the canonical pre-dedup cleanup pass
    (NFC so visually-identical byte sequences hash identically, casefold to
    lowercase, collapse whitespace runs, trim): all four steps are single
    Arrow kernels over the batch, zero Python per row.

    Kernel choice is pinned to what a DuckDB oracle reproduces exactly:
    ``utf8_normalize(form="NFC")`` ≡ ``nfc_normalize``, ``utf8_lower`` ≡
    ``lower`` (both full Unicode), RE2 ``\\s+`` ≡ ``regexp_replace(...,
    'g')`` (ASCII whitespace class in both), and an explicit space-only
    trim (``utf8_trim(" ")``) ≡ SQL ``trim`` — Arrow's
    ``utf8_trim_whitespace`` would also strip U+00A0 etc., which SQL trim
    does not.  Emits ``out_col`` plus ``n_norm_chars`` (codepoint length).
    """
    s = pc.utf8_normalize(batch[text_col], form="NFC")
    s = pc.utf8_lower(s)
    s = pc.replace_substring_regex(s, pattern=r"\s+", replacement=" ")
    s = pc.utf8_trim(s, characters=" ")
    out = batch.append_column(out_col, s)
    # utf8_length is int32 on `string` input; the SQL oracle's length() is
    # BIGINT — pin int64 so value hashes compare dtype-stable
    return out.append_column(
        "n_norm_chars", pc.cast(pc.utf8_length(s), pa.int64())
    )


def chunk_documents_batch(
    batch: pa.Table,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    size: int = 800,
    stride: int = 500,
) -> pa.Table:
    """Flat-map one batch of documents into overlapping codepoint windows —
    the context-window splitting pass that feeds embedding / training
    pipelines (chunk k covers codepoints [k*stride, k*stride+size); last
    chunk may be short; empty docs emit no chunks).

    Vectorized as a loop over CHUNK INDEX k (≤ ceil(max_len/stride)
    iterations, each one Arrow ``utf8_slice_codeunits`` (codepoint-indexed for UTF-8, astral-correct) over every doc
    still long enough) — never a loop over rows.  Codepoint slicing matches
    SQL ``substr`` (both count code points, not bytes), so a DuckDB
    generate_series oracle reproduces chunks exactly."""
    lengths = pc.cast(pc.utf8_length(batch[text_col]), pa.int64())
    max_len = pc.max(lengths).as_py() or 0
    ids_out, ks_out, texts_out = [], [], []
    k = 0
    cur = batch
    cur_len = lengths
    while k * stride < max_len:
        start = k * stride
        keep = pc.greater(cur_len, start)
        # shrink the working set monotonically — docs too short for chunk k
        # are too short for every later k as well
        if not pc.all(keep).as_py():
            cur = cur.filter(keep)
            cur_len = pc.filter(cur_len, keep)
        if cur.num_rows == 0:
            break
        ids_out.append(cur[id_col])
        ks_out.append(pa.array(np.full(cur.num_rows, k, dtype=np.int64)))
        texts_out.append(
            pc.utf8_slice_codeunits(cur[text_col], start=start, stop=start + size)
        )
        k += 1
    if not ids_out:
        return pa.table(
            {
                id_col: pa.array([], batch.schema.field(id_col).type),
                "chunk_id": pa.array([], pa.int64()),
                "chunk_text": pa.array([], pa.string()),
                "n_chars": pa.array([], pa.int64()),
            }
        )
    ids = pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in ids_out])
    txt = pa.concat_arrays(
        [
            (a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a).cast(pa.string())
            for a in texts_out
        ]
    )
    return pa.table(
        {
            id_col: ids,
            "chunk_id": pa.concat_arrays(ks_out),
            "chunk_text": txt,
            "n_chars": pc.cast(pc.utf8_length(txt), pa.int64()),
        }
    )


def chunk_documents(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    size: int = 800,
    stride: int = 500,
):
    """Dataset → Dataset of overlapping text chunks (doc_id, chunk_id,
    chunk_text, n_chars).  Pure per-batch flat-map: no shuffle, chunk count
    scales the output rows but nothing is held beyond one batch — the
    100-TB shape is exactly the 1-GB shape."""
    return ds.map_batches(
        chunk_documents_batch,
        batch_format="pyarrow",
        fn_kwargs={
            "text_col": text_col,
            "id_col": id_col,
            "size": size,
            "stride": stride,
        },
    )


def assemble_chunks(
    ds,
    *,
    id_col: str = "doc_id",
    chunk_col: str = "chunk_id",
    text_col: str = "chunk_text",
    stride: int = 500,
):
    """Inverse of :func:`chunk_documents`: rebuild each document from its
    overlapping chunks (doc = concat of chunk[:stride] for every chunk but
    the last, then the last chunk whole) → Dataset(doc_id, doc_text,
    n_chars).

    Scale shape (the sessionize/asof stitch pattern, sandbox lesson #24):
    ``sort([id, chunk_id])`` is the one all-to-all — the range partitioner
    may split a doc across blocks; each block then assembles every doc
    strictly INTERIOR to it fully vectorized (one ``pc.binary_join`` over a
    LargeList, prefix slices via ``utf8_slice_codeunits``), and emits ≤ 2
    boundary-doc FRAGMENTS (per-block prefix concat + the block's final
    chunk kept whole, in case it is the doc's global last).  The driver
    stitches only boundary fragments — O(blocks), never O(docs)."""
    import pandas as pd
    import ray.data as rd

    srt = ds.select_columns([id_col, chunk_col, text_col]).sort(
        [id_col, chunk_col]
    )

    out_schema = pa.schema(
        [
            (id_col, pa.int64()),
            ("doc_text", pa.string()),
            ("n_chars", pa.int64()),
            # fragment bookkeeping (null for complete docs)
            ("frag_first_chunk", pa.int64()),
            ("frag_tail", pa.string()),
            ("is_frag", pa.bool_()),
        ]
    )

    def _assemble_runs(tbl: pa.Table, starts, ends) -> tuple[list, list]:
        """Vectorized per-run assembly: for runs [s,e), join prefix slices
        of rows s..e-2 and append row e-1's full text.  Returns (texts,
        ids) aligned with runs."""
        txt = tbl[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        prefixes = pc.utf8_slice_codeunits(txt, start=0, stop=stride)
        n = len(tbl)
        # list array over prefixes with the last row of each run swapped
        # for its full text: build value indices = run rows, then replace
        last_rows = ends - 1
        take_idx = np.arange(n, dtype=np.int64)
        use_full = np.zeros(n, dtype=bool)
        use_full[last_rows] = True
        merged = pc.if_else(
            pa.array(use_full), txt, prefixes
        )
        # runs are contiguous: offsets = [s0, s1, ..., sk, n]
        if isinstance(merged, pa.ChunkedArray):
            merged = merged.combine_chunks()
        la = pa.LargeListArray.from_arrays(
            pa.array(np.concatenate([starts, [n]]), pa.int64()),
            merged,
        )
        joined = pc.binary_join(la, "")
        ids_col = tbl[id_col]
        if isinstance(ids_col, pa.ChunkedArray):
            ids_col = ids_col.combine_chunks()
        run_ids = ids_col.take(pa.array(starts, pa.int64()))
        return joined, run_ids

    def block_pass(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return out_schema.empty_table()
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        new_doc = np.concatenate([[True], ids[1:] != ids[:-1]])
        starts = np.flatnonzero(new_doc)
        ends = np.concatenate([starts[1:], [len(b)]])
        joined, run_ids = _assemble_runs(b, starts, ends)
        n_runs = len(starts)
        # first and last doc of the block are boundary fragments; interior
        # docs are complete
        is_frag = np.zeros(n_runs, dtype=bool)
        is_frag[0] = True
        is_frag[-1] = True
        chunk_ids = b[chunk_col].to_numpy(zero_copy_only=False).astype(np.int64)
        txt = b[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        # for fragments: the prefix-joined text INCLUDES the final row's
        # full text; the stitcher needs the prefix-only body + the tail
        # chunk separately, so re-join fragments without their tail row
        frag_rows = np.flatnonzero(is_frag)
        frag_first_chunk = np.full(n_runs, -1, dtype=np.int64)
        frag_first_chunk[frag_rows] = chunk_ids[starts[frag_rows]]
        frag_tail = [None] * n_runs
        frag_body = {}
        prefixes = pc.utf8_slice_codeunits(txt, start=0, stop=stride)
        for r in frag_rows:
            s, e = int(starts[r]), int(ends[r])
            frag_tail[r] = txt[e - 1].as_py()
            frag_body[r] = "".join(
                prefixes.slice(s, e - 1 - s).to_pylist()
            )  # ≤ 2 runs per block, body only — bounded work
        doc_text = joined.to_pylist()
        for r in frag_rows:
            doc_text[r] = frag_body[r]
        out = pa.table(
            {
                id_col: pa.array(run_ids.to_pylist(), pa.int64()),
                "doc_text": pa.array(doc_text, pa.string()),
                "n_chars": pc.cast(
                    pc.utf8_length(pa.array(doc_text, pa.string())), pa.int64()
                ),
                "frag_first_chunk": pa.array(frag_first_chunk, pa.int64()),
                "frag_tail": pa.array(frag_tail, pa.string()),
                "is_frag": pa.array(is_frag),
            },
            schema=out_schema,
        )
        return out

    blocks = srt.map_batches(
        block_pass, batch_size=None, batch_format="pyarrow"
    ).materialize()

    complete = blocks.filter(expr="is_frag == False").select_columns(
        [id_col, "doc_text", "n_chars"]
    )

    # stitch boundary fragments on the driver — O(blocks) rows
    frags = blocks.filter(expr="is_frag == True").to_pandas()
    rows = []
    if len(frags):
        for did, g in frags.groupby(id_col, sort=True):
            g = g.sort_values("frag_first_chunk")
            parts = []
            tails = g["frag_tail"].tolist()
            bodies = g["doc_text"].tolist()
            for i in range(len(g)):
                if i < len(g) - 1:
                    parts.append(bodies[i])
                    parts.append(tails[i][:stride])  # interior fragment tail
                else:
                    parts.append(bodies[i])
                    parts.append(tails[i])  # global last chunk stays whole
            t = "".join(parts)
            rows.append((int(did), t, len(t)))
    stitched = pd.DataFrame(rows, columns=[id_col, "doc_text", "n_chars"])
    if len(stitched) == 0:
        return complete
    stitched_ds = rd.from_pandas(stitched).map_batches(
        lambda t: pa.table(
            {
                id_col: pc.cast(t[id_col], pa.int64()),
                "doc_text": pc.cast(t["doc_text"], pa.string()),
                "n_chars": pc.cast(t["n_chars"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    return complete.union(stitched_ds)


def char_entropy_batch(
    batch: pa.Table, *, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Per-document Shannon entropy (bits/char) over Unicode codepoints —
    the information-density quality signal (low entropy = repetitive or
    degenerate text; pairs with repetition_ratio's n-gram view).

    Fully vectorized: one UTF-32 decode of the batch (``lm._doc_codepoints``
    — codepoints match DuckDB's ``unicode()`` exactly, astral chars
    included), one ``np.unique`` over combined (doc, codepoint) keys, and
    scatter-adds for the per-doc reductions — no Python row loop.

    Output: (id, n_distinct int64, entropy_bits double rounded 6dp).
    Empty docs score 0.0 with 0 distinct chars; ``+ 0.0`` normalizes the
    IEEE -0.0 a single-char doc would otherwise produce (the value hash
    distinguishes -0.0 from 0.0; DuckDB's ``-SUM(...)`` yields the same
    -0.0 and gets the same normalization in the oracle SQL).
    """
    from .lm import _doc_codepoints

    cps, lens = _doc_codepoints(batch[text_col])
    ndocs = len(lens)
    ent = np.zeros(ndocs, dtype=np.float64)
    ndist = np.zeros(ndocs, dtype=np.int64)
    if cps.size:
        doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), lens)
        # 0x110000 > max codepoint: the combined key is collision-free
        key = doc_idx * np.int64(0x110000) + cps
        uk, counts = np.unique(key, return_counts=True)
        udoc = uk // np.int64(0x110000)
        p = counts / lens[udoc].astype(np.float64)
        np.add.at(ent, udoc, -p * np.log2(p))
        np.add.at(ndist, udoc, 1)
    return pa.table(
        {
            id_col: batch[id_col],
            "n_distinct": pa.array(ndist, pa.int64()),
            "entropy_bits": pa.array(np.round(ent, 6) + 0.0, pa.float64()),
        }
    )


def doc_frequency_by_group_batch(
    batch: pa.Table, *, group_col: str = "lang", text_col: str = "text"
) -> pa.Table:
    """map_batches stage: documents → (group, token, df) partial rows,
    df = distinct documents of this batch's GROUP containing the token —
    the grouped sibling of :func:`doc_frequency_batch` (per-language
    vocabulary statistics: the language-balancing / per-lang stopword
    view of the corpus).  Exact for the same reason: a document never
    spans batches, so per-batch distinct sums associatively."""
    t = pc.utf8_lower(pc.fill_null(batch[text_col], ""))
    toks = pc.split_pattern_regex(t, r"\s+")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    doc_ids = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
    gcol = batch[group_col]
    if isinstance(gcol, pa.ChunkedArray):
        gcol = gcol.combine_chunks()
    groups = gcol.take(pa.array(doc_ids))
    nonempty = pc.not_equal(flat, "")
    ne = nonempty.to_numpy(zero_copy_only=False)
    pairs = pa.table(
        {
            "g": pc.filter(groups, nonempty),
            "d": pa.array(doc_ids[ne]),
            "token": pc.filter(flat, nonempty),
        }
    )
    distinct = pairs.group_by(["g", "d", "token"]).aggregate([])
    df = distinct.group_by(["g", "token"]).aggregate([("d", "count")])
    return pa.table(
        {
            group_col: df["g"],
            "token": df["token"],
            "df": pc.cast(df["d_count"], pa.int64()),
        }
    )


def doc_frequency_by_group(
    ds,
    *,
    group_col: str = "lang",
    text_col: str = "text",
    top_n: int = 10,
):
    """Top ``top_n`` tokens per group by document frequency (df desc,
    token asc) → DataFrame(group, token, df).

    Shape: in-batch grouped distinct partials → coalesce → one hash
    aggregate over the (group, token) universe → per-block grouped top-n
    (vectorized lexsort) → driver merge of blocks × groups × n rows.  The
    driver merge is bounded because group universes (languages, sources)
    are bounded; for unbounded group counts use ``rank.topk_per_group``'s
    tree combine on the aggregated (group, token, df) rows instead."""
    import pandas as pd
    from ray.data.aggregate import Sum

    partials = ds.map_batches(
        doc_frequency_by_group_batch,
        batch_format="pyarrow",
        fn_kwargs=dict(group_col=group_col, text_col=text_col),
    ).repartition(guard.shuffle_partitions())
    agg = partials.groupby([group_col, "token"]).aggregate(Sum("df", alias_name="df"))

    def local_top(b: pa.Table) -> pa.Table:
        if group_col not in b.column_names:  # schemaless empty partition
            return pa.table(
                {
                    group_col: pa.array([], pa.string()),
                    "token": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                }
            )
        b = pa.table(
            {
                group_col: pc.cast(b[group_col], pa.string()),
                "token": pc.cast(b["token"], pa.string()),
                "df": pc.cast(b["df"], pa.int64()),
            }
        )
        if len(b) == 0:
            return b
        gc = b[group_col].combine_chunks() if isinstance(
            b[group_col], pa.ChunkedArray
        ) else b[group_col]
        codes = np.asarray(gc.dictionary_encode().indices, dtype=np.int64)
        tok = b["token"]
        trank = np.asarray(pc.rank(tok, sort_keys="ascending", tiebreaker="dense"))
        dfv = b["df"].to_numpy(zero_copy_only=False)
        order = np.lexsort((trank, -dfv, codes))
        sc = codes[order]
        starts = np.flatnonzero(np.concatenate([[True], sc[1:] != sc[:-1]]))
        run_of = np.searchsorted(starts, np.arange(sc.size), side="right") - 1
        rank = np.arange(sc.size) - starts[run_of]
        keep = order[rank < top_n]
        return b.take(pa.array(np.sort(keep)))

    local = agg.map_batches(local_top, batch_format="pyarrow").to_pandas()
    out = (
        local.sort_values(
            [group_col, "df", "token"], ascending=[True, False, True], kind="stable"
        )
        .groupby(group_col, sort=True)
        .head(top_n)
        .reset_index(drop=True)
    )
    return out[[group_col, "token", "df"]]


def vocabulary_ids(ds, *, text_col: str = "text"):
    """Frequency-ranked vocabulary construction: the tokenizer-prep pass of
    an LLM data pipeline — every distinct whitespace token of the corpus
    gets a contiguous 1-based ``token_id`` ordered by (document frequency
    DESC, token ASC), i.e. ``ROW_NUMBER() OVER (ORDER BY df DESC, token)``.

    → Dataset(token: string, df: int64, token_id: int64).

    Shape: the ``document_frequency`` partial+aggregate builds the full
    (token, df) vocabulary distributed (only distinct-tokens-per-block
    rows ever shuffle), ONE range sort orders it, then the id assignment
    is the two-pass block-offset scan of stages/pack.py: a
    ``batch_size=None`` summary pass emits (block-first row, count) —
    sort tuples are unique because tokens are unique, so a block's first
    row IS its global identity — the driver prefix-sums the blocks-sized
    summary, and a second block-local pass adds the broadcast base to an
    in-block arange.  Nothing vocabulary-sized ever lands on the driver."""
    import ray
    from ray.data.aggregate import Sum

    partials = ds.map_batches(
        doc_frequency_batch, batch_format="pyarrow", fn_kwargs={"text_col": text_col}
    ).repartition(guard.shuffle_partitions())
    agg = partials.groupby("token").aggregate(Sum("df", alias_name="df"))

    def norm(b: pa.Table) -> pa.Table:
        # schema-stable blocks (sandbox lesson #22): the sort-aggregate
        # emits SCHEMALESS empty partitions when partitions > distinct keys
        if "token" not in b.column_names:
            return pa.table(
                {"token": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "token": pc.cast(b["token"], pa.string()),
                "df": pc.cast(b["df"], pa.int64()),
            }
        )

    vocab = agg.map_batches(norm, batch_format="pyarrow")
    srt = vocab.sort(["df", "token"], descending=[True, False]).materialize()

    _summ_schema = pa.schema(
        [("first_df", pa.int64()), ("first_token", pa.string()), ("count", pa.int64())]
    )

    def summary(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return _summ_schema.empty_table()
        return pa.table(
            {
                "first_df": pa.array([b["df"][0].as_py()], pa.int64()),
                "first_token": pa.array([b["token"][0].as_py()], pa.string()),
                "count": pa.array([len(b)], pa.int64()),
            }
        )

    summ = (
        srt.map_batches(summary, batch_size=None, batch_format="pyarrow")
        .to_pandas()  # blocks-sized
        .sort_values(["first_df", "first_token"], ascending=[False, True])
        .reset_index(drop=True)
    )
    counts = summ["count"].to_numpy(dtype=np.int64)
    bases = np.concatenate([[0], np.cumsum(counts)[:-1]]) if len(summ) else []
    base_map = {
        (int(d), t): int(bs)
        for d, t, bs in zip(summ["first_df"], summ["first_token"], bases)
    }
    ref = ray.put(base_map)

    def assign(b: pa.Table, *, _ref=ref) -> pa.Table:
        if len(b) == 0:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "token_id": pa.array([], pa.int64()),
                }
            )
        base = ray.get(_ref)[(b["df"][0].as_py(), b["token"][0].as_py())]
        ids = np.arange(base + 1, base + 1 + len(b), dtype=np.int64)
        return b.append_column("token_id", pa.array(ids))

    return srt.map_batches(assign, batch_size=None, batch_format="pyarrow")


def vocab_overlap(
    ds,
    *,
    group_col: str = "lang",
    text_col: str = "text",
) -> "pd.DataFrame":
    """Pairwise vocabulary overlap between document groups →
    DataFrame(group_a, group_b, inter, size_a, size_b) for every group
    pair (a < b): ``inter`` = shared distinct tokens, sizes = each
    group's distinct-token count.  Jaccard/containment are derivable;
    integer outputs keep the oracle hash clean (divide-then-round sits on
    half boundaries).

    Shape: ONE text pass emits in-batch distinct (group, token) partials
    (the doc_frequency kernel keyed by group); one distinct aggregate
    collapses them to the global (group, token) universe; the pair
    intersection is a self hash-join on token over that universe (tokens
    shared by g groups contribute C(g,2) pair rows — bounded by
    #groups²·vocab); sizes are a tiny count.  Nothing document-sized
    shuffles."""
    import pandas as pd
    from ray.data.aggregate import Count

    from .joins import distinct_rows, hash_join

    def gt_rows(b: pa.Table) -> pa.Table:
        t = pc.utf8_lower(pc.fill_null(b[text_col], ""))
        toks = pc.split_pattern_regex(t, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        counts = (
            pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        doc_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(ne))
        doc_of = doc_of[ne]
        gcol = b[group_col]
        if isinstance(gcol, pa.ChunkedArray):
            gcol = gcol.combine_chunks()
        return (
            pa.table({"g": gcol.take(pa.array(doc_of)), "token": flat})
            .group_by(["g", "token"])
            .aggregate([])
        )

    def norm_uni(t: pa.Table) -> pa.Table:
        # the distinct aggregate emits SCHEMALESS empty partitions when
        # partitions > distinct pairs (sandbox lesson #22) — normalize so
        # the pair join's acero kernel always sees (g, token) strings
        if "g" not in t.column_names:
            return pa.table(
                {"g": pa.array([], pa.string()), "token": pa.array([], pa.string())}
            )
        return pa.table(
            {
                "g": pc.cast(t["g"], pa.string()),
                "token": pc.cast(t["token"], pa.string()),
            }
        )

    uni = (
        distinct_rows(
            ds.map_batches(gt_rows, batch_format="pyarrow"),
            ["g", "token"],
        )
        .map_batches(norm_uni, batch_format="pyarrow")
        .materialize()
    )
    sizes = (
        uni.groupby("g")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
        .set_index("g")["n"]
    )
    right = uni.map_batches(
        lambda t: (
            t.rename_columns(["g2", "token"])
            if "g" in t.column_names
            else pa.table(
                {"g2": pa.array([], pa.string()), "token": pa.array([], pa.string())}
            )
        ),
        batch_format="pyarrow",
    )
    # dual regime: the probe auto-broadcasts a small vocabulary (uni is
    # materialized, so re-executing the probe side is a cheap re-read);
    # a large vocabulary takes the native hash-partitioned join
    joined = hash_join(uni, right, on="token", how="inner")

    def pair_partials(t: pa.Table) -> pa.Table:
        if "g" not in t.column_names:
            return pa.table(
                {
                    "g": pa.array([], pa.string()),
                    "g2": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        t = t.filter(pc.less(t["g"], t["g2"]))
        g = t.group_by(["g", "g2"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "g": g["g"],
                "g2": g["g2"],
                "c": pc.cast(g["count_all"], pa.int64()),
            }
        )

    pairs = guard.group_sums(  # groups²-sized
        joined.map_batches(pair_partials, batch_format="pyarrow"), ["g", "g2"], ["c"]
    ).rename(columns={"c": "inter"})
    if pairs.empty:
        return pd.DataFrame(
            columns=["group_a", "group_b", "inter", "size_a", "size_b"]
        )
    out = pd.DataFrame(
        {
            "group_a": pairs["g"],
            "group_b": pairs["g2"],
            "inter": pairs["inter"].astype(np.int64),
            "size_a": pairs["g"].map(sizes).astype(np.int64),
            "size_b": pairs["g2"].map(sizes).astype(np.int64),
        }
    )
    return out.sort_values(["group_a", "group_b"]).reset_index(drop=True)


def kwic(
    ds,
    keyword: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    window: int = 3,
):
    """Keyword-in-context concordance → Dataset(doc_id, pos, snippet):
    every occurrence of ``keyword`` (as a whole lowered whitespace token,
    1-based position) with ± ``window`` tokens of context joined by a
    single space — the corpus-inspection pass behind search previews and
    annotation tooling.

    Embarrassingly parallel: tokenization is the shared flatten kernel,
    match positions come from one vectorized equality, and only the
    per-match snippet join is a Python loop — bounded by the RESULT size
    (keyword occurrences in the batch), never the token count."""
    kw = keyword.lower()

    def per_batch(b: pa.Table) -> pa.Table:
        t = pc.utf8_lower(pc.fill_null(b[text_col], ""))
        toks = pc.split_pattern_regex(t, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        counts = (
            pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        doc_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(ne))
        doc_of = doc_of[ne]
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "snippet": pa.array([], pa.string()),
            }
        )
        if len(flat) == 0:
            return empty
        starts = np.flatnonzero(np.r_[True, doc_of[1:] != doc_of[:-1]])
        seg = np.cumsum(np.r_[True, doc_of[1:] != doc_of[:-1]]) - 1
        tok_pos = np.arange(doc_of.size, dtype=np.int64) - starts[seg]
        ntok = np.bincount(doc_of, minlength=counts.size)
        hits = np.flatnonzero(
            pc.equal(flat, kw).to_numpy(zero_copy_only=False)
        )
        if hits.size == 0:
            return empty
        words = flat.to_pylist()
        out_pos, out_snip, out_doc = [], [], []
        for h in hits:
            d = doc_of[h]
            p = tok_pos[h]  # 0-based within doc
            lo = max(p - window, 0)
            hi = min(p + window, ntok[d] - 1)
            base = starts[seg[h]]
            out_doc.append(ids[d])
            out_pos.append(p + 1)  # 1-based, SQL parity
            out_snip.append(" ".join(words[base + lo : base + hi + 1]))
        return pa.table(
            {
                id_col: pa.array(out_doc, pa.int64()),
                "pos": pa.array(out_pos, pa.int64()),
                "snippet": pa.array(out_snip, pa.string()),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow")


def encode_corpus(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    vocab_broadcast_threshold: int = 5_000_000,
):
    """Tokenize the corpus into frequency-ranked id sequences →
    Dataset(doc_id, n_tokens, id_seq) — the LLM-preprocessing encode pass:
    ``vocabulary_ids`` assigns ids (df DESC, token ASC), every document
    maps its tokens to ids in order, emitted as the space-joined id
    string (docs with zero tokens are omitted — they have no sequence).

    Shape: the vocabulary builds distributed (see ``vocabulary_ids``),
    then broadcasts ONCE as parallel (token-array, id-array) for a
    vectorized ``pc.index_in`` per batch; the sequence rebuild is one
    ``ListArray`` + ``binary_join`` per batch — no per-row Python.
    Vocabularies over ``vocab_broadcast_threshold`` raise (explicit, not
    silently wrong): at that size route through the positional-rows +
    hash-join + regroup plan instead (the tfidf_top_terms dual-regime
    shape), which trades one extra shuffle for no broadcast."""
    import ray

    vocab = vocabulary_ids(ds, text_col=text_col)
    vdf = vocab.to_pandas()
    if len(vdf) > vocab_broadcast_threshold:
        raise ValueError(
            f"vocabulary ({len(vdf)}) exceeds vocab_broadcast_threshold; "
            "use the positional hash-join plan for corpus-scale vocabularies"
        )
    tok_arr = pa.array(vdf["token"].astype(str), pa.string())
    id_strs = pa.array(
        vdf["token_id"].astype(np.int64).astype(str), pa.string()
    )
    ref = ray.put((tok_arr, id_strs))

    def encode(b: pa.Table, *, _ref=ref) -> pa.Table:
        toks_a, ids_a = ray.get(_ref)
        t = pc.utf8_lower(pc.fill_null(b[text_col], ""))
        toks = pc.split_pattern_regex(t, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        counts = (
            pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        doc_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat = flat.filter(pa.array(ne))
        doc_of = doc_of[ne]
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "id_seq": pa.array([], pa.string()),
            }
        )
        if len(flat) == 0:
            return empty
        idx = pc.index_in(flat, value_set=toks_a)
        mapped = ids_a.take(idx)  # every token is in the vocab by construction
        ntok = np.bincount(doc_of, minlength=counts.size).astype(np.int64)
        keep = ntok > 0
        offsets = np.concatenate([[0], np.cumsum(ntok[keep])]).astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), mapped)
        seq = pc.binary_join(lists, " ")
        return pa.table(
            {
                id_col: pa.array(ids[keep], pa.int64()),
                "n_tokens": pa.array(ntok[keep], pa.int64()),
                "id_seq": seq,
            }
        )

    return ds.map_batches(encode, batch_format="pyarrow")


def negative_samples(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    per_doc: int = 5,
    power: float = 0.75,
):
    """Deterministic negative sampling (word2vec/NCE): ``per_doc`` tokens
    per document drawn from the unigram^``power`` distribution
    (Mikolov et al. 2013's df^0.75 smoothing) → Dataset(doc_id, j,
    neg_token).

    Reproducible by construction: draw j of doc d uses the Knuth-hash
    uniform ``((d·per_doc + j)·2654435761 mod 2³²) / 2³²`` (the
    train_val_split hash) through the inverse CDF of the token-ascending
    cumulative weights — fully SQL-expressible, partition-independent.

    Shape: the (token, df) vocabulary builds distributed (doc_frequency
    partials), the (tokens, cumweights) arrays broadcast once, and each
    batch draws vectorized (one searchsorted per batch)."""
    import ray

    vdf = guard.group_sums(  # vocabulary-sized, token ascending
        ds.map_batches(
            doc_frequency_batch, batch_format="pyarrow", fn_kwargs={"text_col": text_col}
        ),
        ["token"],
        ["df"],
    )
    wt = np.power(vdf["df"].to_numpy(dtype=np.float64), power)
    cw = np.cumsum(wt)
    tot = float(cw[-1])
    toks = pa.array(vdf["token"].astype(str), pa.string())
    ref = ray.put((toks, cw))

    def draw(b: pa.Table, *, _ref=ref) -> pa.Table:
        toks_a, cw_a = ray.get(_ref)
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = np.repeat(ids, per_doc)
        j = np.tile(np.arange(per_doc, dtype=np.int64), ids.size)
        u = ((d * per_doc + j) * np.int64(2654435761) % np.int64(2**32)).astype(
            np.float64
        ) / float(2**32)
        idx = np.searchsorted(cw_a, u * tot, side="right")
        idx = np.minimum(idx, len(cw_a) - 1)  # u·tot == tot edge
        return pa.table(
            {
                id_col: pa.array(d, pa.int64()),
                "j": pa.array(j, pa.int64()),
                "neg_token": toks_a.take(pa.array(idx)),
            }
        )

    return ds.select_columns([id_col]).map_batches(draw, batch_format="pyarrow")


def readability_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Flesch-style reading-ease features per doc → (doc_id, n_words,
    n_sents, n_syll, flesch 6dp): words = ``\\S+`` runs, sentences =
    ``[.!?]+`` runs (min 1), syllables ≈ vowel-group runs ``[aeiouy]+``
    on the lowered text (the standard cheap proxy);
    ``flesch = 206.835 − 1.015·(words/sents) − 84.6·(syll/words)``.

    All three counts are single RE2 ``count_substring_regex`` kernels —
    identical non-overlapping leftmost-match semantics to DuckDB's
    ``regexp_extract_all``, so the SQL twin is exact."""
    t = pc.fill_null(batch[text_col], "")
    words = pc.count_substring_regex(t, r"\S+").to_numpy(zero_copy_only=False)
    sents = pc.count_substring_regex(t, r"[.!?]+").to_numpy(
        zero_copy_only=False
    )
    syll = pc.count_substring_regex(
        pc.utf8_lower(t), r"[aeiouy]+"
    ).to_numpy(zero_copy_only=False)
    w = words.astype(np.float64)
    s = np.maximum(sents.astype(np.float64), 1.0)
    y = syll.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        flesch = 206.835 - 1.015 * (w / s) - 84.6 * (y / np.maximum(w, 1.0))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(words.astype(np.int64), pa.int64()),
            "n_sents": pa.array(sents.astype(np.int64), pa.int64()),
            "n_syll": pa.array(syll.astype(np.int64), pa.int64()),
            "flesch": pa.array(np.round(flesch, 6), pa.float64()),
        }
    )


def keyness_token_counts_batch(
    batch: pa.Table, *, group_col: str, text_col: str = "text"
) -> pa.Table:
    """map_batches stage: documents → (group, token, c) token-OCCURRENCE
    count partials — the corpus-keyness combiner.  Entirely Arrow-kernel
    (lower → regex split → flatten with repeated group labels →
    ``group_by`` count); partials sum associatively downstream.  Null text
    contributes no tokens (matching unnest-of-NULL in SQL)."""
    t = pc.utf8_lower(pc.fill_null(batch[text_col], ""))
    toks = pc.split_pattern_regex(t, r"\s+")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    gcol = batch[group_col]
    if isinstance(gcol, pa.ChunkedArray):
        gcol = gcol.combine_chunks()
    idx = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
    nonempty = pc.not_equal(flat, "")
    flat = flat.filter(nonempty)
    idx = idx[nonempty.to_numpy(zero_copy_only=False)]
    pairs = pa.table(
        {group_col: gcol.take(pa.array(idx)), "token": flat}
    )
    g = pairs.group_by([group_col, "token"]).aggregate([([], "count_all")])
    return pa.table(
        {
            group_col: g[group_col],
            "token": g["token"],
            "c": pc.cast(g["count_all"], pa.int64()),
        }
    )


def keyness_terms(
    ds,
    *,
    group_col: str = "lang",
    text_col: str = "text",
    top_n: int = 5,
) -> "pd.DataFrame":
    """Per-group DISTINCTIVE terms by smoothed log-odds ratio (the corpus
    "keyness" analysis — which tokens characterize each language/host/
    source against the rest of the corpus) → DataFrame(group, rank,
    token, score 6dp), rank 1-based by (score desc, token asc).

    ``score(t, g) = ln((c_tg+1)/(C_g−c_tg+1))
                  − ln((c_tḡ+1)/(C_ḡ−c_tḡ+1))``
    with add-1 smoothing — the Monroe/Colaresi/Quinn "fightin' words"
    log-odds form with the rest-of-corpus as reference.

    Scale shape: in-batch (group, token) occurrence partials → ONE
    vocab×groups hash aggregate (Dataset, never collected) → token totals
    via a second aggregate over that same dataset → a distributed
    ``hash_join`` on token attaches totals (vocabulary never broadcasts)
    → per-row vectorized scoring with the #groups-sized totals dict
    broadcast once (documented bounded-groups regime: languages/sources/
    hosts — for 10⁸ groups swap the broadcast for a second join) → local
    top-n per block, tree-combined (``guard.tree_combine``) so the driver
    frame is ≤ max(budget, groups × top_n).

    Ranking uses the 6-dp-ROUNDED score (score is a difference of logs of
    rationals — irrational, so no value can sit exactly on a decimal
    rounding boundary; 1-ulp libm differences vs DuckDB's ln cannot flip
    the rounded rank — sandbox lesson 38)."""
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    from ..functions.scalars import _KEY_PREFIX, GROUP_KEY_NULL
    from .joins import hash_join

    def keyed_counts(b: pa.Table) -> pa.Table:
        # encode_group_key's keys (Ray's groupby cannot sort None against str);
        # NULL counts in the totals but scores no rows, as in the SQL twin
        t = keyness_token_counts_batch(b, group_col=group_col, text_col=text_col)
        g = pc.binary_join_element_wise(_KEY_PREFIX, pc.cast(t[group_col], pa.string()), "")
        return t.set_column(0, group_col, pc.fill_null(g, GROUP_KEY_NULL))

    partials = ds.map_batches(keyed_counts, batch_format="pyarrow")
    gt = (
        partials.repartition(guard.shuffle_partitions())
        .groupby([group_col, "token"])
        .aggregate(Sum("c", alias_name="c"))
        .materialize()
    )
    tt = (
        gt.groupby("token")
        .aggregate(Sum("c", alias_name="ct"))
    )
    # group totals: #groups-sized driver frame (bounded-groups regime)
    gg = guard.group_sums(gt, [group_col], ["c"]).rename(columns={"c": "cg"})
    c_all = float(gg["cg"].sum())
    gkeys = pa.array(gg[group_col].astype(str), pa.string())
    gvals = gg["cg"].to_numpy(dtype=np.float64)
    ref = ray.put((gkeys, gvals, c_all))

    joined = hash_join(gt, tt, on="token")

    def score(b: pa.Table, *, _ref=ref) -> pa.Table:
        out_schema = pa.schema(
            [
                (group_col, pa.string()),
                ("token", pa.string()),
                ("score", pa.float64()),
            ]
        )
        if "token" not in b.column_names:
            return out_schema.empty_table()
        b = b.filter(pc.not_equal(b[group_col], GROUP_KEY_NULL))
        ks, vs, call = ray.get(_ref)
        gidx = pc.index_in(b[group_col], value_set=ks).to_numpy(zero_copy_only=False)
        cg = vs[gidx]
        c = b["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        ct = b["ct"].to_numpy(zero_copy_only=False).astype(np.float64)
        # EXACT float-op order of the SQL twin (integer-valued doubles in,
        # one ln per side)
        s = np.log((c + 1.0) / (cg - c + 1.0)) - np.log(
            (ct - c + 1.0) / (call - cg - (ct - c) + 1.0)
        )
        return pa.table(
            {
                group_col: pc.utf8_slice_codeunits(b[group_col], len(_KEY_PREFIX)),
                "token": pc.cast(b["token"], pa.string()),
                "score": pa.array(np.round(s, 6), pa.float64()),
            },
            schema=out_schema,
        )

    scored = joined.map_batches(score, batch_format="pyarrow")

    def local_topk(b: pa.Table) -> pa.Table:
        if len(b) == 0 or "token" not in b.column_names:
            return pa.schema(
                [
                    (group_col, pa.string()),
                    ("token", pa.string()),
                    ("score", pa.float64()),
                ]
            ).empty_table()
        g = b[group_col].to_numpy(zero_copy_only=False).astype("U")
        tok = b["token"].to_numpy(zero_copy_only=False).astype("U")
        sc = b["score"].to_numpy(zero_copy_only=False)
        order = np.lexsort((tok, -sc, g))
        sg = g[order]
        starts = np.flatnonzero(np.concatenate([[True], sg[1:] != sg[:-1]]))
        run_of = np.searchsorted(starts, np.arange(sg.size), side="right") - 1
        rank = np.arange(sg.size) - starts[run_of]
        keep = order[rank < top_n]
        return b.take(pa.array(np.sort(keep)))

    frame, _ = tree_combine(
        scored.map_batches(local_topk, batch_format="pyarrow"), local_topk
    )
    if len(frame) == 0:
        return pd.DataFrame(columns=[group_col, "rank", "token", "score"])
    top = local_topk(pa.Table.from_pandas(frame, preserve_index=False)).to_pandas()
    top = top.sort_values(
        [group_col, "score", "token"], ascending=[True, False, True], kind="stable"
    ).reset_index(drop=True)
    top["rank"] = (top.groupby(group_col).cumcount() + 1).astype(np.int64)
    return top[[group_col, "rank", "token", "score"]]
