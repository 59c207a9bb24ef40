"""Table 12: the progressive optimization ablation, run for real.

Seven configurations retrace the paper's co-design journey —
Baseline → +FF → +FM → +LO → +CR → +FR → +LS — on the executable
pipeline.  Every stage changes an actual code path or layout knob:

* **FF** switches the file layout from MAP to FLATTENED;
* **FM** switches workers to the direct columnar decode path;
* **LO** removes the build/runtime overhead factor;
* **CR** enables 1.25 MiB coalesced reads;
* **FR** writes feature streams in popularity order;
* **LS** raises stripe rows ~4×.

DPP throughput is rows per CPU-cycle (the worker fleet is compute
bound); storage throughput is useful bytes per second of disk time
under the HDD service model, both normalized to the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dwrf.layout import EncodingOptions, FileLayout
from ..dwrf.reader import IOTrace
from ..dwrf.writer import DwrfFile
from ..tectonic.filesystem import TectonicFilesystem
from ..tectonic.media import COALESCE_WINDOW_BYTES, MediaModel, hdd_node
from ..warehouse.publish import encode_table, store_files
from ..workloads.datasets import MiniDataset
from ..dpp.service import DppSession
from ..dpp.spec import SessionSpec
from ..dpp.worker import WorkerConfig


@dataclass(frozen=True)
class AblationStage:
    """One column of Table 12."""

    name: str
    layout: FileLayout
    in_memory_flatmap: bool
    localized_optimizations: bool
    coalesce_window: int
    popularity_order: bool
    stripe_rows: int


def stages(base_stripe_rows: int = 512, large_stripe_rows: int = 2048) -> list[AblationStage]:
    """The paper's cumulative optimization sequence."""
    return [
        AblationStage("Baseline", FileLayout.MAP, False, False, 0, False, base_stripe_rows),
        AblationStage("+FF", FileLayout.FLATTENED, False, False, 0, False, base_stripe_rows),
        AblationStage("+FM", FileLayout.FLATTENED, True, False, 0, False, base_stripe_rows),
        AblationStage("+LO", FileLayout.FLATTENED, True, True, 0, False, base_stripe_rows),
        AblationStage("+CR", FileLayout.FLATTENED, True, True, COALESCE_WINDOW_BYTES, False, base_stripe_rows),
        AblationStage("+FR", FileLayout.FLATTENED, True, True, COALESCE_WINDOW_BYTES, True, base_stripe_rows),
        AblationStage("+LS", FileLayout.FLATTENED, True, True, COALESCE_WINDOW_BYTES, True, large_stripe_rows),
    ]


@dataclass(frozen=True)
class StageResult:
    """Measured outcome of one ablation stage."""

    stage: AblationStage
    rows: int
    cpu_cycles: float
    useful_bytes: int
    disk_time_s: float
    io_count: int
    seeks: int
    overread_fraction: float

    @property
    def dpp_throughput(self) -> float:
        """Rows per cycle — the worker-side throughput proxy."""
        return self.rows / self.cpu_cycles

    @property
    def storage_throughput(self) -> float:
        """Useful bytes per second of storage-node time."""
        return self.useful_bytes / self.disk_time_s


@dataclass(frozen=True)
class AblationResult:
    """The full Table 12, normalized to the baseline stage."""

    results: list[StageResult]

    def normalized_dpp(self) -> dict[str, float]:
        """DPP throughput relative to the baseline (Table 12 row 1)."""
        base = self.results[0].dpp_throughput
        return {r.stage.name: r.dpp_throughput / base for r in self.results}

    def normalized_storage(self) -> dict[str, float]:
        """Storage throughput relative to the baseline (Table 12 row 2)."""
        base = self.results[0].storage_throughput
        return {r.stage.name: r.storage_throughput / base for r in self.results}


def popularity_feature_order(dataset: MiniDataset) -> tuple[int, ...]:
    """Feature order for FR: projected (popular) features first.

    Within each group, order by coverage descending — the paper orders
    "based on features' popularity in training jobs launched within a
    recent window".
    """
    projected = sorted(
        dataset.projection,
        key=lambda fid: dataset.schema.get(fid).coverage,
        reverse=True,
    )
    rest = [fid for fid in dataset.schema.feature_ids() if fid not in dataset.projection]
    return tuple(projected) + tuple(rest)


def projection_byte_fraction(dataset: MiniDataset, stripe_rows: int = 512) -> float:
    """Fraction of stored feature bytes the job's projection needs.

    Used to credit MAP-layout stages with *useful* bytes: the map
    layout physically reads whole rows, but only this fraction serves
    the training job (the "over read" of Section 7.5).
    """
    from .feature_stats import measure_read_selectivity

    return measure_read_selectivity(dataset, stripe_rows).pct_bytes_used / 100.0


def stage_encoding_options(
    dataset: MiniDataset, stage: AblationStage
) -> EncodingOptions:
    """The layout knobs one ablation stage publishes under."""
    return EncodingOptions(
        layout=stage.layout,
        stripe_rows=stage.stripe_rows,
        feature_order=popularity_feature_order(dataset) if stage.popularity_order else None,
    )


def run_stage(
    dataset: MiniDataset,
    stage: AblationStage,
    media: MediaModel | None = None,
    n_workers: int = 2,
    map_useful_fraction: float | None = None,
    encoded_files: dict[str, DwrfFile] | None = None,
) -> StageResult:
    """Publish the dataset under the stage's layout and run a session.

    *encoded_files* short-circuits the (deterministic) DWRF encode —
    consecutive stages that share layout knobs reuse one encoding.
    """
    media = media or hdd_node()
    filesystem = TectonicFilesystem(n_nodes=6)
    if encoded_files is None:
        encoded_files = encode_table(
            dataset.table, stage_encoding_options(dataset, stage)
        )
    footers = store_files(filesystem, dataset.table.name, encoded_files)
    spec = SessionSpec(
        table_name=dataset.table.name,
        partitions=tuple(dataset.table.partition_names()),
        projection=dataset.projection,
        dag=dataset.dag,
        output_ids=dataset.output_ids,
        batch_size=256,
        coalesce_window=stage.coalesce_window,
    )
    session = DppSession(
        spec,
        filesystem,
        dataset.schema,
        footers,
        n_workers=n_workers,
        worker_config=WorkerConfig(
            in_memory_flatmap=stage.in_memory_flatmap,
            localized_optimizations=stage.localized_optimizations,
        ),
    )
    session.pump()

    trace = IOTrace()
    for worker in session.workers:
        trace.extend(worker.io_trace)
    cycles = sum(worker.stats.usage.cpu_cycles for worker in session.workers)
    rows = sum(worker.stats.rows_processed for worker in session.workers)
    disk_time = media.trace_time(trace.io_sizes(), trace.seek_count())
    useful = trace.useful_bytes
    if stage.layout is FileLayout.MAP:
        # MAP streams are all "needed" by the reader, but only the
        # projection fraction serves the job.
        fraction = (
            map_useful_fraction
            if map_useful_fraction is not None
            else projection_byte_fraction(dataset)
        )
        useful = int(trace.bytes_read * fraction)
    return StageResult(
        stage=stage,
        rows=rows,
        cpu_cycles=cycles,
        useful_bytes=useful,
        disk_time_s=disk_time,
        io_count=trace.io_count,
        seeks=trace.seek_count(),
        overread_fraction=trace.overread_fraction,
    )


def run_ablation(
    dataset: MiniDataset,
    media: MediaModel | None = None,
    base_stripe_rows: int = 2000,
    large_stripe_rows: int = 8000,
) -> AblationResult:
    """Run every Table 12 stage and collect normalized throughputs.

    Stripe sizes default large enough that the miniature reproduces the
    production regime: per-stripe over-read bytes cost more disk time
    than a seek, which is the regime where feature reordering and large
    stripes pay off (Section 7.5).
    """
    fraction = projection_byte_fraction(dataset)
    # EncodingOptions is frozen/hashable, so the options object itself
    # keys the cache — every knob that shapes the bytes participates.
    encoded_cache: dict[EncodingOptions, dict[str, DwrfFile]] = {}
    results = []
    for stage in stages(base_stripe_rows, large_stripe_rows):
        options = stage_encoding_options(dataset, stage)
        if options not in encoded_cache:
            encoded_cache[options] = encode_table(dataset.table, options)
        results.append(
            run_stage(
                dataset,
                stage,
                media,
                map_useful_fraction=fraction,
                encoded_files=encoded_cache[options],
            )
        )
    return AblationResult(results)
