"""Storage seam: Lance when available, Parquet otherwise.

The north rule targets Lance tables; this sandbox has no ``lance`` package
(SURVEY.md §7.6), so every reader/writer in the engine goes through this seam
and silently uses Parquet.  When lance is installed, the same call sites get
``ray.data.read_lance`` / ``write_lance`` with no other changes.

Parquet is read in PACKED ROW-GROUP TASKS (``RowGroupParquetDatasource``).
``ray.data.read_parquet`` plans one read task per file, so a table of a few
large files reads on a few CPUs however many the cluster has.  To reach its
200-block read minimum Ray then appends ``SplitBlocks(k)``, which cuts each
file's output into k slivers AFTER the single task has read it all: the
downstream check bundles still arrive one file at a time, and a 1-file clips
table ran its check at a parallelism of ~0.9 on 4 CPUs.  The row-group source
reads the footers on the driver and plans
k = min(R, c * ceil(B / (c * M))) tasks: R rows (G, the row groups, if
empty row groups make that more), c cluster CPUs, B the selected columns'
uncompressed bytes and M Ray Data's ``target_max_block_size``.  So there
is a whole number of waves of c tasks (fewer only for a table of few
rows), and a task reads B / k <= M bytes on average.
- k <= G row groups: whole row groups go largest first to the task holding
  the fewest rows (Graham's LPT rule), so the tasks of a wave end together:
  4 x 512 + 4 x 238 rows on 4 CPUs are 4 tasks of 750 rows, where one task
  per row group left one worker checking 1,024 rows and another 476, and
  each worker idle for Ray Data's completion poll
  (``ray.wait(..., timeout=0.1)`` in 2.49) between its two tasks.
- k > G: each row group is cut into contiguous row ranges, a row group's
  count in proportion to its rows (each further range to the row group
  with the most rows per range), and the ranges are packed by the same
  rule, one per task.  A row group of r rows cut n ways is ranges of
  ceil(r / n) rows, which the decoder's batches of that size end on
  (5 rows cut 4 ways are 2 + 2 + 1).  A one-row-group table of 3,000
  rows on 4 CPUs is 4 tasks of 750 rows, where it was one task on one
  CPU: the 128-clip warm-up of a clips session warmed one worker, and
  the first timed job started three cold.  A range task decodes its row
  group from the start and stops at the range's end (``_read_range``):
  cutting a row group k ways decodes about (k + 1) / 2 row groups in all,
  over k CPUs.
A task reads its units one at a time, in file order; Ray Data's output
buffer joins them into blocks of up to M.  ``override_num_blocks`` = the
task count, so Ray adds no ``SplitBlocks`` (without it Ray still splits the
row groups into slivers to reach its block minimum).
The plan adds no knob: the task count comes from footer metadata, the
cluster size and Ray Data's block bound alone.  The driver queries read
their tables through this seam too (``engine.queries._read``), so a
one-row-group table reads on every CPU, and Ray fuses its read with the
query's first map.  The clip check (``engine.run.validate_clips_dataset``)
passes Ray Data no ``batch_size``, so it fuses with the read as well: one
task reads its rows and checks them, and the audio payloads never go
through the object store.  Ray does not fuse a read with a ``batch_size``
map, whose minimum bundle size could merge the read's blocks.
"""

from __future__ import annotations

from ray.data import Datasource, ReadTask
from ray.data.block import BlockMetadata
from ray.data.datasource import Partitioning, PathPartitionParser


# The block bound of the Datasets the engine builds: the clip check's, the
# driver tables' and the exchanges' outputs (``bounded``).
CHECK_BLOCK_BYTES = 16 * 1024 * 1024


def bounded(ds):
    """``ds``, its own context's block bound set to ``CHECK_BLOCK_BYTES``.

    ``ds.context`` is one object that ``ds`` and every Dataset derived from
    it share; ``DataContext.get_current()`` is left alone.  Until a task
    has returned an output, Ray Data (2.49) reserves two blocks of the
    bound for it from half of the object store: at Ray's default (128 MB)
    a task reserves 256 MB, so on a 768 MB store each execution starts one
    task alone; at 16 MB four tasks start at once.
    """
    ds.context.target_max_block_size = CHECK_BLOCK_BYTES
    return ds


def have_lance() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


# read_parquet's default: every ``key=value`` directory on a file's path is a
# string column.
_hive = PathPartitionParser(Partitioning("hive"))


def _read_range(fragment, file_schema, names, part, step):
    """Rows [part * step, (part + 1) * step) of a one-row-group fragment,
    in the types of ``file_schema`` (a column the file lacks is NULL, as
    the dataset scanner gives it).  Batches of ``step`` rows are decoded
    from the row group's start and dropped up to the range, and the read
    stops at its end, so a range that ends at row e decodes e rows, not the
    whole row group.  The buffered stream stops the file reads there too:
    unbuffered, pyarrow reads each whole column chunk first (the first
    quarter of a 60 MB row group took 0.061 s unbuffered, 0.014 s
    buffered, and the whole row group 0.081 s)."""
    import itertools

    import pyarrow as pa
    import pyarrow.parquet as pq

    with fragment.filesystem.open_input_file(fragment.path) as f:
        pf = pq.ParquetFile(f, buffer_size=1 << 20)
        have = [c for c in names if c in pf.schema_arrow.names]
        batches = pf.iter_batches(step, row_groups=[fragment.row_groups[0].id],
                                  columns=have)
        table = pa.Table.from_batches([next(itertools.islice(batches, part, None))])
    for c in names:
        if c not in have:
            table = table.append_column(c, pa.nulls(table.num_rows, file_schema.field(c).type))
    table, types = table.select(names), pa.schema([file_schema.field(c) for c in names])
    return table if table.schema.equals(types) else table.cast(types)


def _read_rows(fragment, file_schema, schema, part, step):
    """Rows [part * step, (part + 1) * step) of a one-row-group fragment,
    with its hive columns, as ``schema``."""
    import pyarrow as pa

    names = [c for c in schema.names if c in file_schema.names]
    if part == 0 and step >= fragment.row_groups[0].num_rows:
        table = fragment.to_table(schema=file_schema, columns=names)
    else:
        table = _read_range(fragment, file_schema, names, part, step)
    for key, value in _hive(fragment.path).items():
        if key in schema.names and key not in table.column_names:
            table = table.append_column(key, pa.array([value] * table.num_rows, pa.string()))
    # No schema metadata (pandas' b'pandas' entry): a schema that carries
    # any cannot be hashed, and Ray Data's schema unification then warns.
    return table.select(schema.names).replace_schema_metadata()


def _read_units(units, file_schema, schema):
    for fragment, part, step in units:
        yield _read_rows(fragment, file_schema, schema, part, step)


def _cuts(rows: list[int], k: int) -> list[int]:
    """Ranges per row group for k >= len(rows) ranges in all: one each,
    then each further range to the row group with the most rows per range
    (ties: the earlier one), which makes the largest range as small as k
    contiguous ranges allow."""
    import heapq

    n = [1] * len(rows)
    heap = [(-r, g) for g, r in enumerate(rows)]
    heapq.heapify(heap)
    for _ in range(k - len(rows)):
        _, g = heapq.heappop(heap)
        n[g] += 1
        heapq.heappush(heap, (-rows[g] / n[g], g))
    return n


def _pack_longest_first(rows: list[int], k: int) -> list[list[int]]:
    """Graham's LPT rule: the indices of ``rows``, largest first, each to
    the bin holding the fewest rows so far (ties: the lower bin, and the
    earlier index first).  Returns the non-empty bins, each in index order,
    ordered by their first index: with k >= len(rows), file order."""
    import heapq

    bins: list[list[int]] = [[] for _ in range(k)]
    loads = [(0, j) for j in range(k)]
    for i in sorted(range(len(rows)), key=lambda i: -rows[i]):
        load, j = heapq.heappop(loads)
        bins[j].append(i)
        heapq.heappush(loads, (load + rows[i], j))
    return sorted(sorted(b) for b in bins if b)


class RowGroupParquetDatasource(Datasource):
    """A parquet file or directory as packed row-group read tasks.

    Gives the rows and columns of ``ray.data.read_parquet``: hive
    ``key=value`` directories become string columns, which ``columns``
    prunes like any other.  The plan has k = min(R, c * ceil(B / (c * M)))
    tasks (module docstring), balanced by rows: whole row groups packed
    when k <= G, else each row group cut into contiguous row ranges, one
    range per task (a row group cut k ways decodes about (k + 1) / 2 row
    groups in all).  A range task's metadata gives its own rows, and its
    row group's bytes in proportion.  The plan is made once, on the first
    ``num_tasks`` or ``get_read_tasks`` call, from the cluster's CPUs and
    the current ``DataContext`` at that time.  A table with files but no
    row groups reads as one empty block that keeps its schema; a directory
    with no files reads as no blocks.
    """

    def __init__(self, path: str, columns: list | None = None) -> None:
        import os

        import pyarrow as pa
        import pyarrow.dataset as pds

        # Read tasks run in worker processes, whose working directory is not
        # the driver's.
        if "://" not in path:
            path = os.path.abspath(path)
        dataset = pds.dataset(path, format="parquet")
        # split_by_row_group() reads every footer here, on the driver.
        self._fragments = [rg for f in dataset.get_fragments()
                           for rg in f.split_by_row_group()]
        self._file_schema = schema = dataset.schema.remove_metadata()
        for key in _hive(dataset.files[0]) if dataset.files else ():
            if key not in schema.names:
                schema = schema.append(pa.field(key, pa.string()))
        self._schema = schema if columns is None else pa.schema(
            [schema.field(c) for c in columns])
        self._empty = not self._fragments and bool(dataset.files)
        self._tasks: list[list[tuple[int, int, int]]] | None = None

    def _plan(self) -> list[list[tuple[int, int, int]]]:
        """Each read task's units (row group index, part, step): the rows
        [part * step, (part + 1) * step) of that row group."""
        if self._tasks is None:
            import ray
            from ray.data import DataContext

            if not ray.is_initialized():
                ray.init()          # as Ray Data's first call would
            cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
            block = DataContext.get_current().target_max_block_size
            size = self.estimate_inmemory_data_size()
            waves = max(1, -(-size // (cpus * block))) if block else 1
            rows = [self._metadata(f).num_rows for f in self._fragments]
            k = min(max(sum(rows), len(rows)), cpus * waves)
            if k <= len(rows):
                units = [(g, 0, r) for g, r in enumerate(rows)]
            else:
                steps = [max(1, -(-r // n)) for r, n in zip(rows, _cuts(rows, k))]
                units = [(g, part, step) for g, step in enumerate(steps)
                         for part in range(-(-rows[g] // step))]
            self._tasks = [[units[i] for i in task] for task in _pack_longest_first(
                [self._unit_metadata(u).num_rows for u in units], k)]
        return self._tasks

    def num_tasks(self) -> int:
        return len(self._plan()) + self._empty

    def _metadata(self, fragment) -> BlockMetadata:
        meta = fragment.row_groups[0].metadata
        cols = (meta.column(j) for j in range(meta.num_columns))
        size = sum(c.total_uncompressed_size for c in cols
                   if c.path_in_schema.split(".")[0] in self._schema.names)
        return BlockMetadata(meta.num_rows, size, None, [fragment.path])

    def _unit_metadata(self, unit) -> BlockMetadata:
        """A unit's rows, and its row group's bytes in proportion."""
        g, part, step = unit
        meta = self._metadata(self._fragments[g])
        rows = min(meta.num_rows - part * step, step)
        size = meta.size_bytes * rows // meta.num_rows if rows < meta.num_rows else meta.size_bytes
        return BlockMetadata(rows, size, None, meta.input_files)

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._metadata(f).size_bytes for f in self._fragments)

    def _task(self, units) -> ReadTask:
        schema, file_schema = self._schema, self._file_schema
        metas = [self._unit_metadata(u) for u in units]
        reads = [(self._fragments[g], part, step) for g, part, step in units]
        files = list(dict.fromkeys(f.path for f, _, _ in reads))
        meta = BlockMetadata(sum(m.num_rows for m in metas),
                             sum(m.size_bytes for m in metas), None, files)
        return ReadTask(lambda: _read_units(reads, file_schema, schema), meta, schema)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        if self._empty:
            schema = self._schema
            return [ReadTask(lambda: [schema.empty_table()],
                             BlockMetadata(0, 0, None, None), schema)]
        return [self._task(task) for task in self._plan()]


def read_table(path: str, *, columns=None, **kwargs):
    import ray.data

    if have_lance() and str(path).endswith(".lance"):
        return bounded(ray.data.read_lance(path, columns=columns, **kwargs))
    # The plan is made here, from the global block bound (see ``_plan``);
    # the Dataset's own bound only sizes its blocks and reservations.
    source = RowGroupParquetDatasource(str(path), columns)
    return bounded(ray.data.read_datasource(
        source, override_num_blocks=max(1, source.num_tasks()), **kwargs))


def write_table(ds, path: str, **kwargs) -> None:
    if have_lance() and str(path).endswith(".lance"):
        ds.write_lance(path, **kwargs)
        return
    ds.write_parquet(path, **kwargs)


# ------------------------------------------------------- audio shard sink
#
# Binary-payload sink for audio columns: each task packs its batch's clips
# into ONE shard file of concatenated FLAC streams (the WebDataset/tar
# pattern — file count scales with blocks, not clips, which is what a
# 10^12-clip table needs) and emits manifest rows (clip_id, shard, offset,
# length, n_samples, sr_hz) that the caller writes as the index table.
#
# Shard names are a digest of the batch's clip ids, so a re-run of the
# same partition overwrites the same file with the same bytes —
# write-idempotent, which is what makes the partition-manifest resume in
# engine/run.py safe for binary sinks too.


class AudioShardSink:
    """map_batches callable: transcode each clip to FLAC and append it to
    a per-batch shard file under ``out_dir``; returns manifest rows.

    Transcode is exact for every source codec whose decode lands on the
    int16 grid (pcm16, g711, adpcm, flac itself); pcm8 re-quantizes within
    half an int16 LSB.  Undecodable clips become manifest rows with
    shard = NULL and an error string — the violations pattern, never a
    dropped row."""

    def __init__(self, out_dir: str, bytes_col: str = "bytes",
                 id_col: str = "clip_id", codec_col: str = "codec") -> None:
        import os

        self.out_dir = out_dir
        self.bytes_col = bytes_col
        self.id_col = id_col
        self.codec_col = codec_col
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, batch):
        import hashlib
        import os

        import numpy as np
        import pyarrow as pa

        from engine.audio import AudioDecodeError, decode_any
        from engine.flac import encode_flac
        from engine.stages import binary_views

        ids = batch.column(self.id_col).to_pylist()
        blobs = binary_views(batch.column(self.bytes_col))
        codecs = batch.column(self.codec_col).to_pylist()
        # Digest EVERY clip id: (first, last, count) collides for two
        # batches whose interiors differ after a reshuffle, silently
        # overwriting each other's shard and corrupting earlier offsets.
        digest = hashlib.sha1(
            ("\x1f".join(str(x) for x in ids)).encode()
        ).hexdigest()[:16] if ids else "empty"
        shard_name = f"shard-{digest}.flacpack"
        shard_path = os.path.join(self.out_dir, shard_name)
        pieces: list[bytes] = []
        offsets = np.zeros(len(ids), dtype=np.int64)
        lengths = np.zeros(len(ids), dtype=np.int64)
        n_samples = np.zeros(len(ids), dtype=np.int64)
        srs = np.zeros(len(ids), dtype=np.int64)
        shards: list[str | None] = []
        errors: list[str | None] = []
        off = 0
        for i in range(len(ids)):
            try:
                sig, sr = decode_any(blobs[i], codecs[i])
            except (AudioDecodeError, NotImplementedError) as exc:
                shards.append(None)
                errors.append(f"decode: {exc}")
                continue
            enc = encode_flac(
                np.clip(np.round(sig * 32767.0), -32768, 32767).astype(np.int16),
                int(sr))
            offsets[i] = off
            lengths[i] = len(enc)
            n_samples[i] = sig.size
            srs[i] = int(sr)
            off += len(enc)
            pieces.append(enc)
            shards.append(shard_name)
            errors.append(None)
        tmp = shard_path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(b"".join(pieces))
        os.replace(tmp, shard_path)            # write-once-then-rename
        return pa.table({
            "clip_id": pa.array([str(x) for x in ids], pa.string()),
            "shard": pa.array(shards, pa.string()),
            "offset": pa.array(offsets),
            "length": pa.array(lengths),
            "n_samples": pa.array(n_samples),
            "sr_hz": pa.array(srs),
            "error": pa.array(errors, pa.string()),
        })


def read_shard_clip(out_dir: str, shard: str, offset: int, length: int) -> bytes:
    """Fetch one clip's FLAC stream back out of a packed shard."""
    import os

    with open(os.path.join(out_dir, shard), "rb") as f:
        f.seek(offset)
        return f.read(length)


def export_audio_shards(ds, out_dir: str, *, batch_size: int = 256,
                        concurrency=(1, 8), **cols):
    """clips Dataset → packed FLAC shards + manifest Dataset (caller
    writes the manifest with write_table — parquet here, Lance when the
    seam has it)."""
    return ds.map_batches(
        AudioShardSink,
        fn_constructor_kwargs={"out_dir": out_dir, **cols},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


def read_audio_shards(manifest_ds, shards_dir: str, *, batch_size: int = 256,
                      concurrency: int | None = None):
    """Manifest Dataset → (clip_id, bytes, codec='flac', sr_hz, n_samples)
    clips Dataset — the SOURCE matching AudioShardSink: each task opens
    its batch's shard files once (manifest rows from one shard are
    adjacent, so a batch touches few files) and slices the packed FLAC
    streams back out.  Error rows (shard IS NULL) are dropped — they never
    made it into a shard."""

    def fetch(batch, _dir=shards_dir):
        import os

        import numpy as np
        import pyarrow as pa

        shards_dir = _dir
        shards = batch.column("shard").to_pylist()
        offs = batch.column("offset").to_numpy(zero_copy_only=False)
        lens = batch.column("length").to_numpy(zero_copy_only=False)
        ids = batch.column("clip_id").to_pylist()
        srs = batch.column("sr_hz").to_numpy(zero_copy_only=False)
        nsamp = batch.column("n_samples").to_numpy(zero_copy_only=False)
        out_ids, out_bytes, out_sr, out_n = [], [], [], []
        handles: dict[str, object] = {}
        try:
            for i, sh in enumerate(shards):
                if sh is None:
                    continue
                f = handles.get(sh)
                if f is None:
                    f = handles[sh] = open(os.path.join(shards_dir, sh), "rb")
                f.seek(int(offs[i]))
                out_bytes.append(f.read(int(lens[i])))
                out_ids.append(ids[i])
                out_sr.append(int(srs[i]))
                out_n.append(int(nsamp[i]))
        finally:
            for f in handles.values():
                f.close()
        return pa.table({
            "clip_id": pa.array(out_ids, pa.string()),
            "bytes": pa.array(out_bytes, pa.large_binary()),
            "codec": pa.array(["flac"] * len(out_ids), pa.string()),
            "sr_hz": pa.array(np.asarray(out_sr, dtype=np.int32)),
            "n_samples": pa.array(np.asarray(out_n, dtype=np.int64)),
        })

    return manifest_ds.map_batches(fetch, batch_format="pyarrow",
                                   batch_size=batch_size,
                                   concurrency=concurrency)
