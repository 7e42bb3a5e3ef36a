"""Multimodal columns (round-1 mandate, upgraded round 2): opaque binary
payloads + typed metadata, decoded by actor-pool ``map_batches`` stages.

Round 2: the decode path is REAL for two formats that need no external
libraries — 24bpp BMP images and PCM16 WAV audio (functions/codecs.py,
stdlib + numpy). ``ImageDecoder`` / ``AudioDecoder`` parse actual bytes and
compute actual pixel / sample statistics; pytest pins byte-exact codec
round-trips and stats against a numpy reference. The ``FakeImageDecoder``
stub remains only as the oracle-checkable SQL-replayable plumbing exercise
(and as the swap-in point for PIL/ffmpeg formats this container lacks).

Ray-side conventions: binary columns stay in ``batch_format="pyarrow"``
(binary doesn't round-trip pandas cleanly), small batch sizes for wide
binary rows, decoder state constructed once per actor.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from scrapy_ray.pipelines.queries import _pq

_REAL_DECODERS_AVAILABLE = False
try:  # pragma: no cover - not in this container
    import PIL.Image  # noqa: F401

    _REAL_DECODERS_AVAILABLE = True
except ImportError:
    pass


class FakeImageDecoder:
    """Actor-pool decode stage. __init__ = load-codec-once (stub: nothing to
    load); __call__ = per-batch decode. The stub derives deterministic
    pseudo-dimensions from the byte length so the driver oracle can replay
    the arithmetic in SQL."""

    def __init__(self, fmt: str = "fake-rgb8"):
        if _REAL_DECODERS_AVAILABLE:
            # real path would set up PIL decode here
            pass
        self.fmt = fmt

    def decode_real(self, payload: bytes):
        """Real decode for every format the repo implements from spec:
        BMP/PPM/PGM (functions/codecs.py), PNG (stdlib-zlib codec, exact)
        and JPEG — baseline AND progressive SOF2 (pure-numpy T.81 codec,
        functions/jpeg.py; round 4 closed the PIL gate, round 5 the
        progressive one) and lossless WebP (VP8L, functions/webp.py).
        Lossy VP8 / extended VP8X WebP still raise ValueError, as does an
        unknown magic."""
        from scrapy_ray.functions.codecs import decode_image

        return decode_image(payload)

    def __call__(self, t: pa.Table) -> pa.Table:
        n_bytes = pc.cast(pc.binary_length(t["payload"]), pa.int64()).to_numpy()
        width = 64 + (n_bytes % 577)
        height = 64 + ((n_bytes * 31) % 577)
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_bytes": pa.array(n_bytes, type=pa.int64()),
            "width": pa.array(width, type=pa.int64()),
            "height": pa.array(height, type=pa.int64()),
            "fmt": pa.array([self.fmt] * len(t), type=pa.string()),
        })


def q_multimodal_decode_meta(sf_dir: str):
    """Synthesize a binary payload column (utf-8 bytes of text — documents
    standing in for an image table) and run the actor-pool decode stage.
    Small batch_size: binary payload batches must fit the worker heap."""
    import os

    ds = _pq(sf_dir, "documents",
             columns=["doc_id", "text"])

    def to_payload(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "payload": pc.cast(t["text"], pa.binary())})

    ds = ds.map_batches(to_payload, batch_format="pyarrow")
    out = ds.map_batches(FakeImageDecoder, batch_format="pyarrow",
                         batch_size=512, concurrency=2)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False).replace_schema_metadata(None)


SQL_MULTIMODAL = """
SELECT doc_id::BIGINT AS doc_id,
       octet_length(encode(text))::BIGINT AS n_bytes,
       (64 + octet_length(encode(text)) % 577)::BIGINT AS width,
       (64 + (octet_length(encode(text)) * 31) % 577)::BIGINT AS height,
       'fake-rgb8' AS fmt
FROM documents
"""


# --- REAL decode path (round 2): BMP images / WAV audio, no external libs ---

def synth_image(doc_id: int) -> np.ndarray:
    """Deterministic test image for doc_id: gradient-ish pattern, varied dims."""
    w = 8 + doc_id % 24
    h = 8 + (doc_id * 7) % 24
    r = np.arange(h, dtype=np.int64)[:, None]
    c = np.arange(w, dtype=np.int64)[None, :]
    base = (r * 3 + c * 5 + doc_id) % 256
    return np.stack([base, (base + 85) % 256, (base + 170) % 256],
                    axis=2).astype(np.uint8)


def synth_audio(doc_id: int) -> np.ndarray:
    n = 400 + doc_id % 800
    t = np.arange(n, dtype=np.int64)
    return (((t * (doc_id % 17 + 1)) % 2003 - 1001) * 16).astype(np.int16)


class ImageDecoder:
    """Actor-pool stage: magic-sniffed REAL image decode (BMP / PPM / PGM),
    emitting dims + per-channel pixel means (exact integer sums -> float
    mean rounded to 4)."""

    def __init__(self):
        from scrapy_ray.functions.codecs import decode_image

        self._decode = decode_image  # codec dispatch bound once per actor

    def __call__(self, t: pa.Table) -> pa.Table:
        widths, heights, mean_r = [], [], []
        for payload in t["payload"].to_pylist():
            img = self._decode(payload)
            h, w, _ = img.shape
            widths.append(w)
            heights.append(h)
            mean_r.append(round(float(img[:, :, 0].astype(np.int64).sum())
                                / (h * w), 4))
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "width": pa.array(widths, type=pa.int64()),
            "height": pa.array(heights, type=pa.int64()),
            "mean_r": pa.array(mean_r, type=pa.float64()),
        })


class AudioDecoder:
    """Actor-pool stage: parse REAL PCM16 WAV bytes, emit rate/duration/rms."""

    def __init__(self):
        from scrapy_ray.functions.codecs import decode_wav

        self._decode = decode_wav

    def __call__(self, t: pa.Table) -> pa.Table:
        rates, nsamp, rms = [], [], []
        for payload in t["payload"].to_pylist():
            rate, samples = self._decode(payload)
            rates.append(rate)
            nsamp.append(len(samples))
            s = samples.astype(np.float64)
            rms.append(round(float(np.sqrt(np.mean(s * s))), 4))
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "sample_rate": pa.array(rates, type=pa.int64()),
            "n_samples": pa.array(nsamp, type=pa.int64()),
            "rms": pa.array(rms, type=pa.float64()),
        })


def _payload_ds(sf_dir: str, synth, encode) -> "ray.data.Dataset":
    import os

    ds = _pq(sf_dir, "documents",
             columns=["doc_id"])

    def gen(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array([encode(synth(int(i))) for i in ids],
                                             type=pa.binary())})

    return ds.map_batches(gen, batch_format="pyarrow")


def q_image_decode_stats(sf_dir: str):
    """Encode a deterministic image per document — format rotates
    BMP / PPM / PNG / PGM by doc_id so the actor's magic-sniff dispatch is
    exercised (all four lossless, so the pinned stats are format-free;
    the lossy JPEG codec is pinned separately with error bounds; the
    bit-serial WebP/progressive-JPEG codecs run in the BOUNDED-sample
    q_webp_decode_stats below — a full-corpus rotation would make this
    driver-visible query entropy-decode-bound) —
    decode in an actor pool, emit real pixel statistics.
    Rows-only (pixel math is not SQL); byte-exact codec round-trips +
    stats vs a numpy reference are pytest-pinned."""
    from scrapy_ray.functions.codecs import (encode_bmp, encode_pgm,
                                             encode_png, encode_ppm)

    def encode_mixed(img: np.ndarray) -> bytes:
        k = int(img[0, 0, 0]) % 4     # deterministic per-image format pick
        if k == 0:
            return encode_bmp(img)
        if k == 1:
            return encode_ppm(img)
        if k == 2:
            return encode_png(img)
        return encode_pgm(img[:, :, 0].copy())

    ds = _payload_ds(sf_dir, synth_image, encode_mixed)
    out = ds.map_batches(ImageDecoder, batch_format="pyarrow",
                         batch_size=256, concurrency=2)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False).replace_schema_metadata(None)


def q_webp_decode_stats(sf_dir: str):
    """Round 5: the VP8L WebP codec as a first-class actor-pool stage over
    a BOUNDED document sample (doc_id < 512 via a pruned filter) — the
    entropy coding is bit-serial by design (spec-faithful, like JPEG/PNG
    here), so the sample bound keeps this queries() entry scale-safe at
    ANY corpus size instead of becoming entropy-decode-bound at sf0.1+.
    Per doc: encode synth_image (subtract-green for even ids, dist=1 run
    backrefs for ids % 3 == 0 — both encoder paths exercised), decode in
    the shared ImageDecoder actor pool via the magic sniff, emit the same
    exact pixel stats as q_image_decode_stats. Rows-only (pixel math is
    not SQL); exact round-trip is pytest-pinned."""
    from scrapy_ray.functions.webp import encode_webp

    ds = _pq(sf_dir, "documents", columns=["doc_id"])

    def gen(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids[ids < 512]          # vectorized in-batch sample bound
        payloads = [encode_webp(synth_image(int(i)),
                                subtract_green=(i % 2 == 0),
                                use_backrefs=(i % 3 == 0))
                    for i in ids]
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    out = ds.map_batches(gen, batch_format="pyarrow") \
            .map_batches(ImageDecoder, batch_format="pyarrow",
                         batch_size=128, concurrency=2)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False) \
        .replace_schema_metadata(None)


def q_audio_decode_stats(sf_dir: str):
    """Same shape for PCM16 WAV audio (stdlib wave + numpy)."""
    from scrapy_ray.functions.codecs import encode_wav

    ds = _payload_ds(sf_dir, synth_audio, encode_wav)
    out = ds.map_batches(AudioDecoder, batch_format="pyarrow",
                         batch_size=256, concurrency=2)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False).replace_schema_metadata(None)


def q_media_checksum_dedup(sf_dir: str):
    """S6 media-pipeline checksum dedup ([S:scrapy/pipelines/files.py]:
    assets are stored once per checksum): payloads hash to md5 in the
    decode pool, exact dedup = groupby(checksum) keep min doc_id + copy
    count — the same hash-partition + arg-min shape as text dedup. The
    synthetic payloads repeat every 50 doc_ids so the dedup is exercised
    (500 docs -> 50 distinct assets at sf0.01). Rows-only; counts pinned
    in pytest."""
    import hashlib

    from ray.data.aggregate import Min, Sum

    from scrapy_ray.functions.codecs import encode_bmp

    ds = _payload_ds(sf_dir, lambda i: synth_image(i % 50), encode_bmp)

    def partial(t: pa.Table) -> pa.Table:
        hs = [hashlib.md5(p).hexdigest() for p in t["payload"].to_pylist()]
        import pandas as pd
        df = pd.DataFrame({"checksum": hs,
                           "doc_id": t["doc_id"].to_numpy(zero_copy_only=False)})
        g = df.groupby("checksum").agg(keep_doc=("doc_id", "min"),
                                       n_copies=("doc_id", "count")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    out = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("checksum").aggregate(
                 Min("keep_doc", alias_name="keep_doc"),
                 Sum("n_copies", alias_name="n_copies")))
    t = pa.Table.from_pandas(out.to_pandas(), preserve_index=False).replace_schema_metadata(None)
    for c in ("keep_doc", "n_copies"):
        t = t.set_column(t.schema.get_field_index(c), c, pc.cast(t[c], pa.int64()))
    return t.sort_by("checksum")


def dhash64(gray: np.ndarray) -> int:
    """64-bit difference hash: nearest-neighbor resample to 8x9, bit k =
    (right pixel > left pixel). The standard perceptual fingerprint —
    invariant to small pixel noise (a +/-1 perturbation cannot flip a
    gradient gap) and to constant brightness shifts."""
    g = resize_nn(gray[:, :, None].repeat(3, axis=2), 8, 9)[:, :, 0] \
        .astype(np.int64)
    bits = (g[:, 1:] > g[:, :-1]).ravel()
    return int(np.packbits(bits).view(">u8")[0])


class ImagePHashDeduper:
    """Actor-pool stage: REAL image decode -> grayscale -> dHash64. The
    perceptual analogue of the md5 checksum stage — near-identical pixels
    (noise, brightness shift) collapse to one fingerprint."""

    def __init__(self):
        from scrapy_ray.functions.codecs import decode_image

        self._decode = decode_image

    def __call__(self, t: pa.Table) -> pa.Table:
        hashes = []
        for payload in t["payload"].to_pylist():
            img = self._decode(payload)
            hashes.append(dhash64(img[:, :, 0]))
        # int64 VIEW of the 64-bit hash (bijective): Ray Data groupby sort
        # boundaries overflow on uint64 keys above 2^63
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "phash": pa.array(np.array(hashes, dtype=np.uint64)
                              .view(np.int64), type=pa.int64()),
        })


def synth_noisy_image(doc_id: int) -> np.ndarray:
    """50 base patterns (seeded per-pattern random permutation values on an
    8x9 grid, spaced >= 3 apart so a single +/-1 pixel perturbation can
    NEVER flip a dHash comparison) plus a deterministic per-doc noise
    pixel — byte-distinct payloads (md5 dedup keeps them apart) that are
    perceptually identical within a base group (dHash collapses them)."""
    k = doc_id % 50
    rng = np.random.default_rng(1000 + k)
    gray = (rng.permutation(72).reshape(8, 9) * 3).astype(np.uint8)
    img = np.stack([gray, gray, gray], axis=2)
    r, c = (doc_id * 13) % 8, (doc_id * 31) % 9
    delta = 1 if doc_id % 2 else -1
    img[r, c] = np.clip(img[r, c].astype(np.int64) + delta, 0, 255) \
        .astype(np.uint8)
    return img


def q_image_phash_dedup(sf_dir: str):
    """Perceptual near-duplicate image dedup: decode -> dHash64 in the
    actor pool, then the same hash-partition + keep-min-doc collapse as
    exact dedup — but over the perceptual fingerprint, so byte-distinct
    noisy copies of one image land in one group (md5 keeps them apart;
    the pytest pin asserts exactly that). Rows-only; the group mapping
    must factor through doc_id % 50 by construction."""
    from ray.data.aggregate import Count, Min

    from scrapy_ray.functions.codecs import encode_bmp

    ds = _payload_ds(sf_dir, synth_noisy_image, encode_bmp)
    hashed = ds.map_batches(ImagePHashDeduper, batch_format="pyarrow",
                            batch_size=256, concurrency=2)
    out = (hashed.groupby("phash").aggregate(
        Min("doc_id", alias_name="keep_doc"),
        Count(alias_name="n_copies")))
    t = pa.Table.from_pandas(out.to_pandas(), preserve_index=False) \
                .replace_schema_metadata(None)
    for c in ("phash", "keep_doc", "n_copies"):
        t = t.set_column(t.schema.get_field_index(c), c,
                         pc.cast(t[c], pa.int64()))
    return t.sort_by("phash")


def synth_video(doc_id: int) -> tuple[list[np.ndarray], int]:
    """Deterministic frame sequence per doc_id (varied frame count, fps and
    per-frame dims)."""
    n_frames = 4 + doc_id % 9
    fps = 5 + doc_id % 3
    return [synth_image(doc_id * 131 + 7 * f) for f in range(n_frames)], fps


class VideoFrameSampler:
    """Actor-pool frame-sampling stage: parse the RAYV index (O(header)),
    decode ONLY every ``stride``-th frame via the seek table — decode cost
    scales with sampled frames, not stream length — and emit per-video
    stats (frame counts, first sampled frame dims, integer-exact mean luma
    over sampled pixels)."""

    def __init__(self, stride: int = 3):
        from scrapy_ray.functions.codecs import decode_bmp, rayv_index

        self._index = rayv_index     # codec dispatch bound once per actor
        self._decode = decode_bmp
        self.stride = stride

    def __call__(self, t: pa.Table) -> pa.Table:
        nf, ns, fpss, ws, hs, luma = [], [], [], [], [], []
        for payload in t["payload"].to_pylist():
            fps, offsets, lengths = self._index(payload)
            picks = range(0, len(offsets), self.stride)
            lsum = npx = 0
            w0 = h0 = 0
            for i, k in enumerate(picks):
                o, ln = int(offsets[k]), int(lengths[k])
                img = self._decode(payload[o:o + ln]).astype(np.int64)
                if i == 0:
                    h0, w0 = img.shape[:2]
                # ITU-R 601 integer luma, exact
                lsum += int((299 * img[:, :, 0] + 587 * img[:, :, 1]
                             + 114 * img[:, :, 2]).sum())
                npx += img.shape[0] * img.shape[1]
            nf.append(len(offsets))
            ns.append(len(picks))
            fpss.append(fps)
            ws.append(w0)
            hs.append(h0)
            luma.append(round(lsum / (1000 * npx), 4))
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_frames": pa.array(nf, type=pa.int64()),
            "n_sampled": pa.array(ns, type=pa.int64()),
            "fps": pa.array(fpss, type=pa.int64()),
            "width": pa.array(ws, type=pa.int64()),
            "height": pa.array(hs, type=pa.int64()),
            "mean_luma": pa.array(luma, type=pa.float64()),
        })


def q_video_frame_sample(sf_dir: str):
    """Video modality end-to-end: encode a deterministic RAYV container per
    document (real BMP frames + index table), frame-sample every 3rd frame
    in an actor pool using index seeks. Small batch_size — video payloads
    are the widest binary rows in the suite. Rows-only (pixel math is not
    SQL); container round-trip, seek-vs-full-parse equality and stats vs a
    numpy reference are pytest-pinned."""
    from scrapy_ray.functions.codecs import encode_rayv

    ds = _payload_ds(sf_dir, synth_video,
                     lambda v: encode_rayv(v[0], fps=v[1]))
    out = ds.map_batches(VideoFrameSampler, batch_format="pyarrow",
                         batch_size=64, concurrency=2)
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False).replace_schema_metadata(None)


def resize_nn(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize via integer index maps — vectorized, exact,
    deterministic (idx = floor(i * in / out), the standard NN convention).
    Identity when dims already match (same index map by construction)."""
    h, w = img.shape[:2]
    ri = (np.arange(out_h, dtype=np.int64) * h) // out_h
    ci = (np.arange(out_w, dtype=np.int64) * w) // out_w
    return img[ri][:, ci]


_THUMB = 32  # fixed thumbnail edge


class ImageResizer:
    """Actor-pool resize + feature-extract stage (the mandate's 'resize /
    feature-extract' modality): magic-sniffed decode, nearest-neighbor
    resize to a fixed 32x32 thumbnail, re-encode as BMP (the thumbnail is a
    REAL image payload a downstream stage can decode), plus a compact
    feature row — per-channel integer-exact means and a gray edge density
    (fraction of horizontally adjacent thumbnail pixels differing by > 16).
    Codec dispatch bound once per actor; all pixel math vectorized numpy;
    the per-payload loop is inherent to byte decoding."""

    def __init__(self, edge: int = _THUMB, min_width: int = 0,
                 min_height: int = 0):
        """``min_width``/``min_height``: IMAGES_MIN_WIDTH / IMAGES_MIN_HEIGHT
        parity ([S:scrapy/pipelines/images.py ImagesPipeline]: undersized
        images are dropped, not stored)."""
        from scrapy_ray.functions.codecs import decode_image, encode_bmp

        self._decode = decode_image
        self._encode = encode_bmp
        self.edge = edge
        self.min_width = min_width
        self.min_height = min_height

    def __call__(self, t: pa.Table) -> pa.Table:
        thumbs, ws, hs, keep = [], [], [], []
        means = {c: [] for c in "rgb"}
        edges = []
        e = self.edge
        for payload in t["payload"].to_pylist():
            img = self._decode(payload)
            h, w, _ = img.shape
            if w < self.min_width or h < self.min_height:
                keep.append(False)
                continue
            keep.append(True)
            th = resize_nn(img, e, e)
            thumbs.append(self._encode(th))
            ws.append(w)
            hs.append(h)
            px = th.astype(np.int64)
            for k, c in enumerate("rgb"):
                means[c].append(round(float(px[:, :, k].sum()) / (e * e), 4))
            gray = (299 * px[:, :, 0] + 587 * px[:, :, 1]
                    + 114 * px[:, :, 2]) // 1000
            d = np.abs(np.diff(gray, axis=1)) > 16
            edges.append(round(float(d.sum()) / d.size, 4))
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids[np.asarray(keep, dtype=bool)] if len(keep) else ids[:0]
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "src_width": pa.array(ws, type=pa.int64()),
            "src_height": pa.array(hs, type=pa.int64()),
            "thumb": pa.array(thumbs, type=pa.binary()),
            "mean_r": pa.array(means["r"], type=pa.float64()),
            "mean_g": pa.array(means["g"], type=pa.float64()),
            "mean_b": pa.array(means["b"], type=pa.float64()),
            "edge_density": pa.array(edges, type=pa.float64()),
        })


def q_image_resize_features(sf_dir: str):
    """Image resize + feature extraction end-to-end: deterministic mixed
    BMP/PPM source images, actor-pool nearest-neighbor 32x32 thumbnails
    (re-encoded BMP riding the output as a binary column) + per-channel
    means and edge density. Small batch_size — rows carry image payloads
    both directions. Rows-only (pixel math is not SQL); resize exactness
    (index-map equality, identity at matching dims) and feature values vs
    a numpy reference are pytest-pinned."""
    from scrapy_ray.functions.codecs import encode_bmp, encode_ppm

    def encode_mixed(img: np.ndarray) -> bytes:
        return encode_bmp(img) if int(img[0, 0, 0]) % 2 == 0 else encode_ppm(img)

    ds = _payload_ds(sf_dir, lambda i: synth_image(i * 17 + 3), encode_mixed)
    out = ds.map_batches(ImageResizer, batch_format="pyarrow",
                         batch_size=128, concurrency=2)
    t = pa.Table.from_pandas(out.to_pandas(), preserve_index=False).replace_schema_metadata(None)
    return t.sort_by("doc_id")


class AudioFeatureExtractor:
    """Actor-pool DSP feature stage (the audio counterpart of
    ImageResizer's feature row): real PCM16 WAV decode, then numpy-rfft
    spectral features — centroid, bandwidth, 85% rolloff (all in Hz) and
    zero-crossing rate. Pure float64 numpy on exact integer samples,
    deterministic; per-payload loop inherent to byte decoding."""

    def __init__(self):
        from scrapy_ray.functions.codecs import decode_wav

        self._decode = decode_wav

    def __call__(self, t: pa.Table) -> pa.Table:
        cent, bw, roll, zcr = [], [], [], []
        for payload in t["payload"].to_pylist():
            rate, samples = self._decode(payload)
            x = samples.astype(np.float64)
            mag = np.abs(np.fft.rfft(x))
            freqs = np.fft.rfftfreq(len(x), d=1.0 / rate)
            tot = mag.sum()
            c = float((freqs * mag).sum() / tot) if tot > 0 else 0.0
            v = float((((freqs - c) ** 2) * mag).sum() / tot) if tot > 0 else 0.0
            e = np.cumsum(mag ** 2)
            r = float(freqs[np.searchsorted(e, 0.85 * e[-1])]) if tot > 0 else 0.0
            z = float(np.mean(np.abs(np.diff(np.signbit(x).astype(np.int8)))))
            cent.append(round(c, 4))
            bw.append(round(v ** 0.5, 4))
            roll.append(round(r, 4))
            zcr.append(round(z, 6))
        return pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "centroid_hz": pa.array(cent, type=pa.float64()),
            "bandwidth_hz": pa.array(bw, type=pa.float64()),
            "rolloff_hz": pa.array(roll, type=pa.float64()),
            "zcr": pa.array(zcr, type=pa.float64()),
        })


def q_audio_spectral_features(sf_dir: str):
    """Audio feature-extraction end-to-end: deterministic PCM16 WAV per
    document, actor-pool rfft spectral features. Rows-only (FFT is not
    SQL); values pinned vs an independent numpy reference in pytest."""
    from scrapy_ray.functions.codecs import encode_wav

    ds = _payload_ds(sf_dir, synth_audio, encode_wav)
    out = ds.map_batches(AudioFeatureExtractor, batch_format="pyarrow",
                         batch_size=256, concurrency=2)
    t = pa.Table.from_pandas(out.to_pandas(), preserve_index=False).replace_schema_metadata(None)
    return t.sort_by("doc_id")


MULTIMODAL_QUERIES = {
    "multimodal_decode_meta": (q_multimodal_decode_meta, SQL_MULTIMODAL),
    "image_decode_stats": (q_image_decode_stats, None),
    "webp_decode_stats": (q_webp_decode_stats, None),
    "audio_decode_stats": (q_audio_decode_stats, None),
    "media_checksum_dedup": (q_media_checksum_dedup, None),
    "image_phash_dedup": (q_image_phash_dedup, None),
    "video_frame_sample": (q_video_frame_sample, None),
    "image_resize_features": (q_image_resize_features, None),
    "audio_spectral_features": (q_audio_spectral_features, None),
}
