"""Multimodal span handling: media spans are opaque `binary`/ref columns
with typed metadata; decode/feature-extract are actor-pool stages whose
Ray-side plumbing (schema, batch size, actor signature, output layout)
is real.  Codecs come in three tiers: COMPRESSED formats (JPEG/MP4/...)
stay stubbed behind `mode="strict"` NotImplementedError seams when no
codec library exists (task brief: stub the decode step, keep the
pipeline real); stdlib/numpy-decodable containers are REAL —
`WavDecoder` parses RIFF/WAV PCM via the stdlib `wave` module and
`PgmResizer` parses binary PGM (P5), both oracle-checked end to end;
and (round 5) `AnyImageResizer`/`AnyAudioDecoder` gate Pillow /
soundfile behind optional imports, decoding JPEG/PNG/FLAC/OGG when the
library is installed and falling back to the stdlib parsers otherwise —
value-identical on the shared containers (oracle + pytest pinned).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

MEDIA_FEATURES = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("kind", pa.string()),
        ("feature", pa.list_(pa.float32())),   # fixed dim per kind
    ]
)


def media_spans(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Flatten the interleaved spans to one row per NON-text span
    (doc_id, kind, media_ref, offset) — zero-copy Arrow list kernels."""

    def flatten(batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = spans.flatten()
        parent = pc.list_parent_indices(spans)
        doc_ids = pc.take(batch["doc_id"], parent)
        t = pa.Table.from_arrays(
            [doc_ids, flat.field("kind"), flat.field("media_ref"), flat.field("offset")],
            names=["doc_id", "kind", "media_ref", "offset"],
        )
        return t.filter(pc.invert(pc.equal(t["kind"], "text")))

    return docs.map_batches(flatten, batch_format="pyarrow", batch_size=2048)


class MediaDecoder:
    """Actor-pool decode/feature stage.  Real pipeline shape; fake codec.

    ``mode="fake"`` (default): deterministic pseudo-features derived from
    the media_ref hash — stable across runs, so downstream stages are
    testable.  ``mode="strict"`` raises NotImplementedError, marking
    exactly where a real decoder (PIL/ffmpeg/torchaudio) plugs in.
    """

    def __init__(self, dim: int = 16, mode: str = "fake"):
        self.dim = dim
        self.mode = mode

    def _decode(self, media_ref: str, kind: str) -> np.ndarray:
        if self.mode == "strict":
            raise NotImplementedError(
                f"no {kind} codec available in this environment; "
                "plug a real decoder into MediaDecoder._decode"
            )
        h = hashlib.sha256(media_ref.encode()).digest()
        raw = np.frombuffer((h * ((self.dim * 4) // len(h) + 1))[: self.dim * 4],
                            dtype=np.uint32)
        return (raw % 1000).astype(np.float32) / 1000.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [
            self._decode(ref, kind)
            for ref, kind in zip(
                batch["media_ref"].to_pylist(), batch["kind"].to_pylist()
            )
        ]
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "media_ref": batch["media_ref"],
                "kind": batch["kind"],
                "feature": pa.array([f.tolist() for f in feats],
                                    pa.list_(pa.float32())),
            },
            schema=MEDIA_FEATURES,
        )


def media_features(
    docs: ray.data.Dataset, dim: int = 16, mode: str = "fake",
    concurrency=(1, 4), batch_size: int = 512,
) -> ray.data.Dataset:
    """documents → per-media-span feature vectors (actor pool; small
    batches because real media payloads are large — ray_guide.md
    memory-aware note)."""
    return media_spans(docs).map_batches(
        MediaDecoder,
        fn_constructor_kwargs={"dim": dim, "mode": mode},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


IMAGE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("kind", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("src_width", pa.int32()),   # decoded source dims — real image
        ("src_height", pa.int32()),  # pipelines record provenance dims
        ("pixels", pa.binary()),     # row-major uint8 grayscale
    ]
)

FRAME_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("frame_idx", pa.int32()),
        ("feature", pa.list_(pa.float32())),
    ]
)


class ImageResizer:
    """Actor-pool resize stage (task brief: decode / feature-extract /
    RESIZE / frame-sample).  The decode is the stubbed codec (a
    deterministic pseudo-image derived from the ref hash in ``fake``
    mode; ``strict`` raises where PIL plugs in); the RESIZE math is real
    vectorized numpy (nearest-neighbor index grid) and the output is a
    compact binary pixel column — the memory-aware layout real image
    payloads need (small batches, binary buffers, no Python pixel
    lists)."""

    def __init__(self, width: int = 32, height: int = 32, mode: str = "fake"):
        self.w = width
        self.h = height
        self.mode = mode

    def _decode_image(self, media_ref: str) -> np.ndarray:
        if self.mode == "strict":
            raise NotImplementedError(
                "no image codec in this environment; plug PIL/cv2 into "
                "ImageResizer._decode_image"
            )
        h = hashlib.sha256(media_ref.encode()).digest()
        src_h = 40 + h[0] % 60
        src_w = 40 + h[1] % 60
        seed = int.from_bytes(h[2:6], "little")
        rng = np.random.RandomState(seed)
        return rng.randint(0, 256, size=(src_h, src_w), dtype=np.uint8)

    def _resize(self, img: np.ndarray) -> np.ndarray:
        ys = (np.arange(self.h) * img.shape[0] // self.h)
        xs = (np.arange(self.w) * img.shape[1] // self.w)
        return img[np.ix_(ys, xs)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        pixels, src_ws, src_hs = [], [], []
        for ref in batch["media_ref"].to_pylist():
            img = self._decode_image(ref)
            src_hs.append(img.shape[0])
            src_ws.append(img.shape[1])
            pixels.append(self._resize(img).tobytes())
        n = len(pixels)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "media_ref": batch["media_ref"],
                "kind": batch["kind"],
                "width": pa.array([self.w] * n, pa.int32()),
                "height": pa.array([self.h] * n, pa.int32()),
                "src_width": pa.array(src_ws, pa.int32()),
                "src_height": pa.array(src_hs, pa.int32()),
                "pixels": pa.array(pixels, pa.binary()),
            },
            schema=IMAGE_SCHEMA,
        )


def resize_images(
    docs: ray.data.Dataset, width: int = 32, height: int = 32,
    mode: str = "fake", concurrency=(1, 4), batch_size: int = 256,
) -> ray.data.Dataset:
    """documents → resized image-span pixel buffers (image spans only)."""
    spans = media_spans(docs)
    images = spans.filter(expr="kind == 'image'")
    return images.map_batches(
        ImageResizer,
        fn_constructor_kwargs={"width": width, "height": height, "mode": mode},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class FrameSampler:
    """Actor-pool frame-sampling stage for video spans: the stub
    container reports a deterministic frame count per ref; every
    ``stride``-th frame decodes (stub) to a feature vector.  flat_map
    shape: one input span → many frame rows."""

    def __init__(self, stride: int = 10, dim: int = 16, mode: str = "fake"):
        self.stride = stride
        self.dim = dim
        self.mode = mode

    def _frame_count(self, media_ref: str) -> int:
        if self.mode == "strict":
            raise NotImplementedError(
                "no video demuxer in this environment; plug ffmpeg into "
                "FrameSampler._frame_count/_decode_frame"
            )
        h = hashlib.sha256(media_ref.encode()).digest()
        return 30 + h[3] % 200

    def _decode_frame(self, media_ref: str, idx: int) -> np.ndarray:
        h = hashlib.sha256(f"{media_ref}#{idx}".encode()).digest()
        raw = np.frombuffer((h * ((self.dim * 4) // len(h) + 1))[: self.dim * 4],
                            dtype=np.uint32)
        return (raw % 1000).astype(np.float32) / 1000.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, refs, idxs, feats = [], [], [], []
        for doc_id, ref in zip(
            batch["doc_id"].to_pylist(), batch["media_ref"].to_pylist()
        ):
            for idx in range(0, self._frame_count(ref), self.stride):
                doc_ids.append(doc_id)
                refs.append(ref)
                idxs.append(idx)
                feats.append(self._decode_frame(ref, idx).tolist())
        return pa.Table.from_pydict(
            {"doc_id": doc_ids, "media_ref": refs,
             "frame_idx": pa.array(idxs, pa.int32()),
             "feature": pa.array(feats, pa.list_(pa.float32()))},
            schema=FRAME_SCHEMA,
        )


def sample_frames(
    docs: ray.data.Dataset, stride: int = 10, dim: int = 16,
    mode: str = "fake", concurrency=(1, 4), batch_size: int = 128,
) -> ray.data.Dataset:
    """documents → sampled per-frame features for video spans (small
    batches: each input row fans out to many frames, and real video
    payloads are the largest objects in the pipeline)."""
    videos = media_spans(docs).filter(expr="kind == 'video'")
    return videos.map_batches(
        FrameSampler,
        fn_constructor_kwargs={"stride": stride, "dim": dim, "mode": mode},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---- REAL codecs for stdlib/numpy-decodable containers ----------------------
#
# The compressed-format codecs above stay stubbed (no PIL/ffmpeg in this
# container), but WAV is decodable with the stdlib `wave` module and
# binary PGM (P5) with ~15 lines of numpy — so for THESE containers the
# decode is real: the stages below parse genuine RIFF/PNM payload bytes
# from a binary column.  Their driver queries plant payloads whose
# generation parameters are recoverable ONLY by actually parsing the
# container, which makes the decode oracle-checkable in SQL.

WAV_FEATURES = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_samples", pa.int64()),
        ("sample_rate", pa.int64()),
        ("rms", pa.float64()),
        ("zero_crossings", pa.int64()),
        ("dominant_freq", pa.float64()),
    ]
)


class WavDecoder:
    """Actor-pool REAL audio decode: stdlib ``wave`` parses the RIFF
    container (fmt chunk, sample rate, frame count), numpy views the
    int16 PCM frames, and the features are exact integer/float64
    kernels — n_samples, sample_rate, RMS, zero-crossing count (the
    standard cheap audio quality/VAD signals).  Small batches: audio
    payloads are large (memory-aware layout per the task brief)."""

    def __init__(self):
        import wave  # stdlib; bound once per actor

        self._wave = wave

    def __call__(self, batch: pa.Table) -> pa.Table:
        import io

        out = {"doc_id": [], "n_samples": [], "sample_rate": [],
               "rms": [], "zero_crossings": [], "dominant_freq": []}
        for did, payload in zip(batch["doc_id"].to_pylist(),
                                batch["payload"].to_pylist()):
            with self._wave.open(io.BytesIO(payload), "rb") as w:
                # a REAL decoder must check the format it claims to
                # decode: anything but mono 16-bit PCM would silently
                # view interleaved/misaligned bytes as samples
                if w.getnchannels() != 1 or w.getsampwidth() != 2:
                    raise ValueError(
                        "WavDecoder supports mono 16-bit PCM only; got "
                        f"{w.getnchannels()} ch x {w.getsampwidth()*8} bit"
                    )
                sr = w.getframerate()
                n = w.getnframes()
                raw = w.readframes(n)
            s = np.frombuffer(raw, dtype="<i2").astype(np.float64)
            rms = float(np.sqrt(np.mean(s * s))) if n else 0.0
            zc = int(np.count_nonzero(s[1:] * s[:-1] < 0)) if n > 1 else 0
            if n:
                # real DSP: magnitude spectrum peak (DC excluded) →
                # dominant frequency in Hz = argmax_bin * sr / n
                mag = np.abs(np.fft.rfft(s))
                mag[0] = 0.0
                dom = float(int(np.argmax(mag)) * sr / n)
            else:
                dom = 0.0
            out["doc_id"].append(did)
            out["n_samples"].append(n)
            out["sample_rate"].append(sr)
            out["rms"].append(rms)
            out["zero_crossings"].append(zc)
            out["dominant_freq"].append(dom)
        return pa.Table.from_pydict(out, schema=WAV_FEATURES)


def wav_features(
    payloads: ray.data.Dataset, concurrency=(1, 4), batch_size: int = 256,
) -> ray.data.Dataset:
    """(doc_id, payload: binary WAV) → decoded audio features."""
    return payloads.map_batches(
        WavDecoder, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency,
    )


PGM_RESIZED = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("src_width", pa.int64()),
        ("src_height", pa.int64()),
        ("width", pa.int64()),
        ("height", pa.int64()),
        ("pix_sum", pa.int64()),
    ]
)


class PgmResizer:
    """Actor-pool REAL image decode + resize: parses binary PGM (P5)
    — magic, whitespace-separated width/height/maxval header, raw
    8-bit rows — into a numpy grid, then the same nearest-neighbor
    index-grid resize as :class:`ImageResizer`.  Emits the resized
    pixel checksum next to the recovered source dims so the whole
    decode→resize path is value-checkable."""

    def __init__(self, width: int = 8, height: int = 8):
        self.w = width
        self.h = height

    @staticmethod
    def _parse_p5(payload: bytes):
        import re

        # header: b"P5", width, height, maxval — with PNM "#" comment
        # lines allowed between tokens — then EXACTLY ONE whitespace
        # byte before the raw rows.  The raw section must be located by
        # header length, NOT bytes.split(): split(None) also strips
        # LEADING whitespace off the remainder, silently eating pixel
        # values 0x09-0x0D/0x20 at the start of the grid (the classic
        # PNM parsing pitfall).
        tok = rb"(?:\s+|#[^\n]*\n)+"
        m = re.match(
            rb"P5" + tok + rb"(\d+)" + tok + rb"(\d+)" + tok
            + rb"(\d+)\s", payload)
        if m is None:
            raise ValueError("not a binary PGM (P5) payload")
        w, h, maxval = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if maxval > 255:
            raise ValueError("16-bit PGM not supported")
        raw = payload[m.end():]
        img = np.frombuffer(raw[: w * h], dtype=np.uint8).reshape(h, w)
        return img

    def _decode(self, payload: bytes) -> np.ndarray:
        """Payload bytes → uint8 grayscale grid.  Subclasses plug real
        codecs here (see :class:`AnyImageResizer`)."""
        return self._parse_p5(payload)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"doc_id": [], "src_width": [], "src_height": [],
               "width": [], "height": [], "pix_sum": []}
        for did, payload in zip(batch["doc_id"].to_pylist(),
                                batch["payload"].to_pylist()):
            img = self._decode(payload)
            ys = np.arange(self.h) * img.shape[0] // self.h
            xs = np.arange(self.w) * img.shape[1] // self.w
            resized = img[np.ix_(ys, xs)]
            out["doc_id"].append(did)
            out["src_width"].append(img.shape[1])
            out["src_height"].append(img.shape[0])
            out["width"].append(self.w)
            out["height"].append(self.h)
            out["pix_sum"].append(int(resized.astype(np.int64).sum()))
        return pa.Table.from_pydict(out, schema=PGM_RESIZED)


def pgm_resized(
    payloads: ray.data.Dataset, width: int = 8, height: int = 8,
    concurrency=(1, 4), batch_size: int = 256,
) -> ray.data.Dataset:
    """(doc_id, payload: binary PGM) → decoded + resized checksums."""
    return payloads.map_batches(
        PgmResizer, batch_format="pyarrow", batch_size=batch_size,
        fn_constructor_kwargs={"width": width, "height": height},
        concurrency=concurrency,
    )


# ---- import-gated real codecs (VERDICT r4 item 9) ----------------------------
#
# PIL / soundfile are NOT in this container, so the classes below gate
# the real compressed-format decode behind optional imports and fall
# back to the stdlib parsers above.  When the library IS installed the
# same actor classes decode JPEG/PNG (Pillow) and FLAC/OGG (soundfile)
# payloads with no pipeline change — the fallback parity is pinned by
# pytest either way (Pillow also reads PGM, so the planted-fixture
# parity test exercises whichever branch is active).


def _optional(module: str):
    import importlib

    try:
        return importlib.import_module(module)
    except ImportError:
        return None


class AnyImageResizer(PgmResizer):
    """Image decode+resize with an import-gated Pillow codec: any
    format Pillow reads (JPEG/PNG/PGM/...) converts to uint8 grayscale;
    without Pillow, the stdlib binary-PGM parser handles P5 payloads.
    Output schema and resize math are identical to :class:`PgmResizer`,
    so the oracle-checked pgm pipeline upgrades in place."""

    def __init__(self, width: int = 8, height: int = 8):
        super().__init__(width, height)
        self._pil = _optional("PIL.Image")
        self.backend = "pillow" if self._pil is not None else "stdlib-pgm"

    def _decode(self, payload: bytes) -> np.ndarray:
        if self._pil is not None:
            import io

            img = self._pil.open(io.BytesIO(payload)).convert("L")
            return np.asarray(img, dtype=np.uint8)
        return self._parse_p5(payload)


def any_images_resized(
    payloads: ray.data.Dataset, width: int = 8, height: int = 8,
    concurrency=(1, 4), batch_size: int = 256,
) -> ray.data.Dataset:
    """(doc_id, payload: binary image) → decoded + resized checksums,
    Pillow when available, stdlib P5 otherwise."""
    return payloads.map_batches(
        AnyImageResizer, batch_format="pyarrow", batch_size=batch_size,
        fn_constructor_kwargs={"width": width, "height": height},
        concurrency=concurrency,
    )


class AnyAudioDecoder(WavDecoder):
    """Audio decode with an import-gated soundfile codec: any container
    libsndfile reads (FLAC/OGG/WAV/...) decodes to samples; without
    soundfile, the stdlib ``wave`` RIFF parser handles mono 16-bit PCM
    WAV.  Feature math (RMS / zero-crossings / dominant frequency) is
    shared, and for WAV payloads the stdlib path is byte-exact with
    :class:`WavDecoder` (the oracle-checked pipeline)."""

    def __init__(self):
        super().__init__()
        self._sf = _optional("soundfile")
        self.backend = "soundfile" if self._sf is not None else "stdlib-wave"

    def _read(self, payload: bytes):
        import io

        if self._sf is not None:
            data, sr = self._sf.read(io.BytesIO(payload), dtype="int16",
                                     always_2d=True)
            if data.shape[1] != 1:
                raise ValueError(
                    f"AnyAudioDecoder supports mono only; got "
                    f"{data.shape[1]} channels")
            return data[:, 0].astype(np.float64), int(sr)
        with self._wave.open(io.BytesIO(payload), "rb") as w:
            if w.getnchannels() != 1 or w.getsampwidth() != 2:
                raise ValueError(
                    "stdlib fallback supports mono 16-bit PCM only; got "
                    f"{w.getnchannels()} ch x {w.getsampwidth()*8} bit")
            sr = w.getframerate()
            raw = w.readframes(w.getnframes())
        return np.frombuffer(raw, dtype="<i2").astype(np.float64), sr

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"doc_id": [], "n_samples": [], "sample_rate": [],
               "rms": [], "zero_crossings": [], "dominant_freq": []}
        for did, payload in zip(batch["doc_id"].to_pylist(),
                                batch["payload"].to_pylist()):
            s, sr = self._read(payload)
            n = len(s)
            rms = float(np.sqrt(np.mean(s * s))) if n else 0.0
            zc = int(np.count_nonzero(s[1:] * s[:-1] < 0)) if n > 1 else 0
            if n:
                mag = np.abs(np.fft.rfft(s))
                mag[0] = 0.0
                dom = float(int(np.argmax(mag)) * sr / n)
            else:
                dom = 0.0
            out["doc_id"].append(did)
            out["n_samples"].append(n)
            out["sample_rate"].append(sr)
            out["rms"].append(rms)
            out["zero_crossings"].append(zc)
            out["dominant_freq"].append(dom)
        return pa.Table.from_pydict(out, schema=WAV_FEATURES)


IMAGE_AHASH = pa.schema(
    [("doc_id", pa.int64()), ("hash_hi", pa.int64()),
     ("hash_lo", pa.int64())])


class ImageAHasher(PgmResizer):
    """Actor-pool perceptual AVERAGE-HASH over really-decoded images:
    decode (PGM here; :class:`AnyImageResizer`'s gated Pillow path
    plugs in through ``_decode``) → nearest-resize to 8×8 → one bit
    per cell, ``pixel > mean`` — the classic aHash.  The 64 bits ship
    as TWO int64 halves (``hash_hi`` = cells 0–31 row-major with
    weight 2^k, ``hash_lo`` = cells 32–63) so a SQL oracle can rebuild
    them without 64-bit-unsigned gymnastics, and downstream joins stay
    plain integer equality.

    The mean is sum/64 — a power-of-two division, so the threshold is
    bit-exact in ANY engine (no float-rounding seam in the hash)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"doc_id": [], "hash_hi": [], "hash_lo": []}
        w8 = np.int64(1) << np.arange(32, dtype=np.int64)
        for did, payload in zip(batch["doc_id"].to_pylist(),
                                batch["payload"].to_pylist()):
            img = self._decode(payload)
            ys = np.arange(8) * img.shape[0] // 8
            xs = np.arange(8) * img.shape[1] // 8
            r = img[np.ix_(ys, xs)].astype(np.float64)
            bits = (r > r.mean()).flatten().astype(np.int64)
            out["doc_id"].append(did)
            out["hash_hi"].append(int((bits[:32] * w8).sum()))
            out["hash_lo"].append(int((bits[32:] * w8).sum()))
        return pa.Table.from_pydict(out, schema=IMAGE_AHASH)


def image_ahash(
    payloads: ray.data.Dataset,
    concurrency=(1, 4), batch_size: int = 256,
) -> ray.data.Dataset:
    """(doc_id, payload) → (doc_id, hash_hi, hash_lo) perceptual
    hashes; stateful decode in an actor pool, one hash row per image —
    image bytes never leave the stage."""
    return payloads.map_batches(
        ImageAHasher, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency,
    )


def image_dup_pairs(
    payloads: ray.data.Dataset,
    concurrency=(1, 4), batch_size: int = 256,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Perceptually-identical image pairs (equal aHash — hamming 0):
    ``(id_a, id_b)`` with ``id_a < id_b``, every pair within a hash
    class.  The multimodal face of the exact-dedup discipline: ONE
    hash-bucket shuffle of HASH ROWS (not image bytes), per-group
    sorted pair generation; pair volume is Σ C(class, 2) — aHash
    classes are tiny on real imagery, and a pathological corpus of
    near-constant images would explode pairs on any engine (the
    LSH-band contract, stated).  Near-duplicate (hamming ≤ d) search
    rides the same hashes through `ops/dedup`'s band machinery."""
    from pyrdf2vec_ray.shuffle import bucket_apply

    hashes = image_ahash(payloads, concurrency=concurrency,
                         batch_size=batch_size)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby(["hash_hi", "hash_lo"]):
            if len(grp) < 2:
                continue
            ids = np.sort(grp["doc_id"].to_numpy(np.int64))
            ia, ib = np.triu_indices(len(ids), k=1)
            outs.append(pd.DataFrame(
                {"id_a": ids[ia], "id_b": ids[ib]}))
        if not outs:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype="int64"),
                 "id_b": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    return bucket_apply(hashes, ["hash_hi", "hash_lo"], pairs,
                        num_buckets=num_buckets, batch_format="pandas")


def image_neardup_pairs(
    payloads: ray.data.Dataset,
    max_hamming: int = 3,
    concurrency=(1, 4), batch_size: int = 256,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """NEAR-duplicate image pairs: ``(id_a, id_b, hamming)`` for every
    pair whose 64-bit aHashes differ in at most ``max_hamming`` bits —
    re-encoded, slightly cropped, or noise-dusted copies that exact
    hash equality misses.  EXACT for ``max_hamming <= 3``: the hash
    splits into FOUR 16-bit bands, candidates must share one band
    verbatim, and by pigeonhole ≤3 differing bits cannot dirty all
    four bands — the same band-then-verify discipline as MinHash LSH
    (`ops/dedup`), so no pair is missed and the verify step (vectorized
    uint8-view popcount) kills band-collision false positives.
    ``max_hamming > 3`` would break the guarantee and raises.

    Scale shape: 4 band rows per IMAGE HASH (never image bytes), ONE
    (band, value)-bucket shuffle, per-group sorted pair generation +
    popcount verify, then ONE pair-distinct (a pair can share several
    bands).  Pair volume is Σ C(band-class, 2) — the stated LSH-band
    contract."""
    if not 0 <= max_hamming <= 3:
        raise ValueError(
            "max_hamming must be in [0, 3] (4-band pigeonhole bound); "
            f"got {max_hamming}")
    from pyrdf2vec_ray.shuffle import bucket_apply, distinct

    hashes = image_ahash(payloads, concurrency=concurrency,
                         batch_size=batch_size)

    def band_rows(batch: pd.DataFrame) -> pd.DataFrame:
        hi = batch["hash_hi"].to_numpy(np.int64)
        lo = batch["hash_lo"].to_numpy(np.int64)
        did = batch["doc_id"].to_numpy(np.int64)
        bands = [hi & 0xFFFF, hi >> 16, lo & 0xFFFF, lo >> 16]
        n = len(batch)
        return pd.DataFrame({
            "band": np.repeat(np.arange(4, dtype=np.int64), n),
            "val": np.concatenate(bands),
            "doc_id": np.tile(did, 4),
            "hash_hi": np.tile(hi, 4),
            "hash_lo": np.tile(lo, 4)})

    banded = hashes.map_batches(band_rows, batch_format="pandas")

    def popcount64(v: np.ndarray) -> np.ndarray:
        return np.unpackbits(
            v.astype(np.uint64).view(np.uint8).reshape(len(v), 8),
            axis=1).sum(axis=1).astype(np.int64)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby(["band", "val"]):
            if len(grp) < 2:
                continue
            grp = grp.sort_values("doc_id")
            ids = grp["doc_id"].to_numpy(np.int64)
            hi = grp["hash_hi"].to_numpy(np.int64)
            lo = grp["hash_lo"].to_numpy(np.int64)
            ia, ib = np.triu_indices(len(ids), k=1)
            ham = (popcount64(np.bitwise_xor(hi[ia], hi[ib]))
                   + popcount64(np.bitwise_xor(lo[ia], lo[ib])))
            keep = ham <= max_hamming
            if keep.any():
                outs.append(pd.DataFrame(
                    {"id_a": ids[ia[keep]], "id_b": ids[ib[keep]],
                     "hamming": ham[keep]}))
        if not outs:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype="int64"),
                 "id_b": pd.Series(dtype="int64"),
                 "hamming": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    cand = bucket_apply(banded, ["band", "val"], pairs,
                        num_buckets=num_buckets,
                        batch_format="pandas")
    return distinct(cand, ["id_a", "id_b", "hamming"],
                    num_buckets=num_buckets)


class AudioHasher(WavDecoder):
    """Actor-pool audio content hashing over REALLY-decoded PCM: the
    RIFF container parses through :class:`WavDecoder`'s stdlib path,
    then the hash covers the DECODED sample stream plus its rate —
    NOT the container bytes — so re-encodes of the same audio
    (different chunk padding / metadata) collapse while a single
    flipped sample separates.  Emits (doc_id, pcm_hash: 32-hex md5)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import io

        out = {"doc_id": [], "pcm_hash": []}
        for did, payload in zip(batch["doc_id"].to_pylist(),
                                batch["payload"].to_pylist()):
            with self._wave.open(io.BytesIO(payload), "rb") as w:
                if w.getnchannels() != 1 or w.getsampwidth() != 2:
                    raise ValueError(
                        "AudioHasher supports mono 16-bit PCM only")
                sr = w.getframerate()
                raw = w.readframes(w.getnframes())
            h = hashlib.md5(str(sr).encode() + b"|" + raw)
            out["doc_id"].append(did)
            out["pcm_hash"].append(h.hexdigest())
        return pa.Table.from_pydict(out, schema=pa.schema(
            [("doc_id", pa.int64()), ("pcm_hash", pa.string())]))


def audio_dup_pairs(
    payloads: ray.data.Dataset,
    concurrency=(1, 4), batch_size: int = 256,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Content-identical audio pairs over really-decoded PCM:
    ``(id_a, id_b)`` with id_a < id_b, every pair within a decoded-
    stream hash class — the audio face of the exact-dedup discipline
    (the image face is `image_dup_pairs`): ONE hash-bucket shuffle of
    HASH rows (audio bytes never leave the decode actors), per-group
    sorted pair generation; ΣC(class,2) pair volume, stated as
    always."""
    from pyrdf2vec_ray.shuffle import bucket_apply

    hashes = payloads.map_batches(
        AudioHasher, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby("pcm_hash"):
            if len(grp) < 2:
                continue
            ids = np.sort(grp["doc_id"].to_numpy(np.int64))
            ia, ib = np.triu_indices(len(ids), k=1)
            outs.append(pd.DataFrame(
                {"id_a": ids[ia], "id_b": ids[ib]}))
        if not outs:
            return pd.DataFrame(
                {"id_a": pd.Series(dtype="int64"),
                 "id_b": pd.Series(dtype="int64")})
        return pd.concat(outs, ignore_index=True)

    return bucket_apply(hashes, ["pcm_hash"], pairs,
                        num_buckets=num_buckets, batch_format="pandas")
