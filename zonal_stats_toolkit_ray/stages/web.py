"""Web-corpus domain analysis (round 4): URL host extraction and per-domain
statistics — the C4/CCNet-style per-domain bookkeeping (domain caps, domain
quality profiling) a Common-Crawl-scale pipeline runs before sampling.

Shapes: host extraction is one Arrow RE2 kernel per batch; the per-domain
rollup is a two-level grouped aggregate — in-batch (host, lang) partials →
``guard.group_sums`` → per-host merge — so only (host, lang)-sized rows
ever leave a batch, never pages.  Per-domain CAPS compose with
``split.sample_n_per_group`` (deterministic smallest-hash-n per host).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import guard

_HOST_PATTERN = r"^[A-Za-z][A-Za-z0-9+.\-]*://(?P<host>[^/?#]+)"


def url_host_batch(batch: pa.Table, *, url_col: str = "url") -> pa.Table:
    """Adds ``host`` — the authority component of ``url_col`` (scheme
    required, port kept, path/query/fragment dropped); null when the URL
    does not parse.  One vectorized RE2 ``extract_regex`` pass."""
    ex = pc.extract_regex(batch[url_col], pattern=_HOST_PATTERN)
    return batch.append_column("host", pc.struct_field(ex, "host"))


def host_stats(
    ds,
    *,
    url_col: str = "url",
    text_col: str = "text",
    lang_col: str = "lang",
) -> pd.DataFrame:
    """Per-domain corpus profile → (host, n_pages, total_chars, n_langs),
    host ascending.

    Two-level reduce: each batch groups (host, lang) with vectorized Arrow
    ``group_by`` (count + char sum), ``guard.group_sums`` merges partials
    by (host, lang) — rows collected = distinct (host, lang) per block —
    and a final per-host combine on the driver sums pages/chars and counts
    distinct langs.  A NULL host (unparseable URL) or lang is its own
    group."""

    def partials(b: pa.Table) -> pa.Table:
        b = url_host_batch(b, url_col=url_col)
        t = pa.table(
            {
                "host": b["host"],
                "lang": b[lang_col],
                "chars": pc.cast(pc.utf8_length(b[text_col]), pa.int64()),
            }
        )
        g = t.group_by(["host", "lang"]).aggregate(
            [("chars", "sum"), ("chars", "count")]
        )
        return pa.table(
            {
                "host": g["host"],
                "lang": g["lang"],
                "n_pages": pc.cast(g["chars_count"], pa.int64()),
                "total_chars": pc.cast(g["chars_sum"], pa.int64()),
            }
        )

    hl = guard.group_sums(  # (host, lang)-sized, host ascending
        ds.map_batches(partials, batch_format="pyarrow"),
        ["host", "lang"],
        ["n_pages", "total_chars"],
    )
    return (
        hl.groupby("host", sort=False, dropna=False)
        .agg(
            n_pages=("n_pages", "sum"),
            total_chars=("total_chars", "sum"),
            n_langs=("lang", "size"),  # rows are distinct (host, lang)
        )
        .reset_index()
        .astype({"n_langs": np.int64})
    )


# --- hyperlink extraction / host link graph --------------------------------
# The web-graph bookkeeping step (PageRank inputs, domain-level spam
# signals): pull every href out of the raw html bytes and aggregate the
# host→host edge list.  pyarrow has no extract_ALL regex kernel, so the
# exploder is built from plain Arrow split kernels + numpy offset math —
# one split_pattern pass to cut at `href="`, one to cut each piece at the
# closing quote — fully vectorized, no Python row loop, no parser state.


def extract_links_batch(
    batch: pa.Table, *, html_col: str = "html", url_col: str = "url"
) -> pa.Table:
    """Explodes every ``href="…"`` in ``html_col`` → one row per anchor:
    (src_host, dst_host, href).  Anchors whose href has no parseable
    authority get a null dst_host (kept — callers filter).  Assumes html
    is valid UTF-8 (the corpus invariant; cast raises otherwise)."""
    s = pc.fill_null(pc.cast(batch[html_col], pa.string()), "")
    parts = pc.split_pattern(s, pattern='href="')
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    offsets = np.asarray(parts.offsets)
    counts = offsets[1:] - offsets[:-1]
    # piece 0 of every row is the pre-first-href prefix — drop it
    n_rows = len(batch)
    parent = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
    pos = np.arange(parent.size, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    keep = pos > 0
    kept_vals = parts.values.take(pa.array(np.flatnonzero(keep)))
    kept_parent = parent[keep]
    # each kept piece starts with the href value; cut at the closing quote
    href = pc.list_element(
        pc.split_pattern(kept_vals, pattern='"', max_splits=1), 0
    )
    dst = pc.struct_field(pc.extract_regex(href, pattern=_HOST_PATTERN), "host")
    src_urls = batch[url_col].take(pa.array(kept_parent))
    src = pc.struct_field(pc.extract_regex(src_urls, pattern=_HOST_PATTERN), "host")
    return pa.table({"src_host": src, "dst_host": dst, "href": href})


def link_graph(
    ds,
    *,
    html_col: str = "html",
    url_col: str = "url",
) -> pd.DataFrame:
    """Host-level link graph → (src_host, dst_host, n_links), ascending.

    One pass: per batch, explode anchors (``extract_links_batch``) and
    immediately collapse to distinct (src_host, dst_host) count partials —
    the exploded rows never leave the batch, only edge-universe-sized
    partials merge in ``guard.group_sums``.  Unparseable hrefs are
    dropped here (no authority ⇒ not a host edge); an unparseable page
    URL gives a NULL ``src_host``, its own group, sorted last."""

    def partials(b: pa.Table) -> pa.Table:
        links = extract_links_batch(b, html_col=html_col, url_col=url_col)
        links = links.filter(pc.is_valid(links["dst_host"]))
        g = links.group_by(["src_host", "dst_host"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "src_host": g["src_host"],
                "dst_host": g["dst_host"],
                "n_links": pc.cast(g["count_all"], pa.int64()),
            }
        )

    out = guard.group_sums(  # edge-universe-sized
        ds.map_batches(partials, batch_format="pyarrow"),
        ["src_host", "dst_host"],
        ["n_links"],
    )
    out["n_links"] = out["n_links"].astype(np.int64)
    return out


# --- URL canonicalization ---------------------------------------------------
# The crawl-dedup normalizer: two fetches of the same resource differ by
# tracking params, fragments, case of scheme/host, default ports and
# trailing slashes.  The step list below is the SINGLE source of truth —
# the DuckDB oracle SQL is GENERATED from these same constants
# (__ray_entry__._canonical_sql), so engine and oracle cannot drift.  Both
# regex engines are RE2; replacements use \1-style rewrites valid in both.
#
# Documented caveat: a literal '&' in a PATH with no query string is
# rewritten to '?' by the separator-fix step (step 3) — RFC-legal but
# vanishingly rare in crawls; callers with such corpora should pre-escape.

CANONICAL_PRE_PATTERN = r"^[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*"
CANONICAL_STEPS: tuple[tuple[str, str, bool], ...] = (
    # (pattern, replacement, global)
    (r"#.*$", "", False),  # 1. strip fragment
    (r"[?&](utm_[a-z0-9]+|fbclid|gclid)=[^&#]*", "", True),  # 2. tracking params
    (r"^([^?]*)&", r"\1?", False),  # 3. re-fix first separator if '?' was eaten
)
CANONICAL_PORT_PATTERN = r":(80|443)$"  # on the lowered authority prefix
CANONICAL_REST_STEPS: tuple[tuple[str, str, bool], ...] = (
    (r"(.*[^/])/+$", r"\1", False),  # 4a. strip trailing slashes
    (r"^/+$", "", False),  # 4b. bare-slash path -> empty
)


def canonicalize_url_batch(
    batch: pa.Table, *, url_col: str = "url", out_col: str = "canonical_url"
) -> pa.Table:
    """Adds ``out_col`` = canonical form of ``url_col``: fragment stripped,
    utm_*/fbclid/gclid params dropped, scheme+authority lowercased, default
    ports (:80/:443) removed, trailing path slashes trimmed.  Pure chain of
    vectorized RE2 kernels (see CANONICAL_STEPS); URLs with no parseable
    scheme://authority get steps 1-3 only (never null)."""
    s = batch[url_col]
    for pat, repl, g in CANONICAL_STEPS:
        s = pc.replace_substring_regex(
            s, pattern=pat, replacement=repl,
            max_replacements=None if g else 1,
        )
    pre = pc.struct_field(
        pc.extract_regex(s, pattern=f"(?P<pre>{CANONICAL_PRE_PATTERN})"), "pre"
    )
    rest = pc.replace_substring_regex(
        s, pattern=CANONICAL_PRE_PATTERN, replacement="", max_replacements=1
    )
    pre2 = pc.replace_substring_regex(
        pc.utf8_lower(pre), pattern=CANONICAL_PORT_PATTERN,
        replacement="", max_replacements=1,
    )
    for pat, repl, g in CANONICAL_REST_STEPS:
        rest = pc.replace_substring_regex(
            rest, pattern=pat, replacement=repl,
            max_replacements=None if g else 1,
        )
    joined = pc.binary_join_element_wise(pre2, rest, "")
    canon = pc.if_else(pc.is_valid(pre), joined, s)
    return batch.append_column(out_col, canon)


# --- flat-JSON scalar extraction -------------------------------------------
# Web-event payloads ship as JSON strings; pipelines constantly project one
# scalar field out before aggregating.  There is no vectorized JSON parser
# in this environment (no pyarrow.json column kernel, no simdjson), so this
# extracts FLAT SCALAR keys with one RE2 pass per key — exactly equivalent
# to json_extract for payloads without nesting/escaped-quote keys, which is
# the shape of machine-emitted event props.  Nested/structured JSON needs a
# real parser lib and is out of scope (documented, not silently wrong: the
# pattern only matches a top-level "key": <scalar> pair).

_JSON_NUM = r'(?P<v>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)'
_JSON_STR = r'"(?P<v>(?:[^"\\]|\\.)*)"'


def json_scalar_batch(
    batch: pa.Table,
    *,
    json_col: str,
    key: str,
    out_col: str | None = None,
    value_type: str = "int",
) -> pa.Table:
    """Adds ``out_col`` = the scalar value of ``key`` in the flat JSON
    object column ``json_col`` (null when the key is absent or non-scalar).
    ``value_type``: "int" | "float" | "string".  One vectorized
    ``extract_regex`` kernel; no per-row Python, no parser state."""
    out_col = out_col or key
    vpat = _JSON_STR if value_type == "string" else _JSON_NUM
    pattern = r'"' + key + r'"\s*:\s*' + vpat
    ex = pc.extract_regex(batch[json_col], pattern=pattern)
    v = pc.struct_field(ex, "v")
    if value_type == "int":
        v = pc.cast(v, pa.int64())
    elif value_type == "float":
        v = pc.cast(v, pa.float64())
    return batch.append_column(out_col, v)
