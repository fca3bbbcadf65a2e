"""Input partitioning for the master task scheduler (§III.B.2).

"The task scheduler first splits the input data into partitions, whose
default number is twice that of the fat nodes."  Partitions here are
half-open index ranges over the application's items; the worker sub-task
schedulers split them further into device blocks.
"""

from __future__ import annotations

from repro._validation import require_nonnegative_int, require_positive_int


def partition_range(n_items: int, n_partitions: int) -> list[tuple[int, int]]:
    """Split ``[0, n_items)`` into *n_partitions* near-equal ranges.

    Sizes differ by at most one item; empty ranges are produced only when
    there are more partitions than items.
    """
    require_nonnegative_int("n_items", n_items)
    require_positive_int("n_partitions", n_partitions)
    base, extra = divmod(n_items, n_partitions)
    out = []
    start = 0
    for i in range(n_partitions):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def weighted_partition(
    n_items: int, weights: list[float]
) -> list[tuple[int, int]]:
    """Split ``[0, n_items)`` proportionally to *weights*.

    Used twice in PRS: by the master across (possibly inhomogeneous) fat
    nodes, and by the sub-task scheduler splitting a partition between CPU
    (weight ``p``) and GPU (weight ``1-p``) per Equation (8).  Rounding is
    largest-remainder so the totals are exact.
    """
    require_nonnegative_int("n_items", n_items)
    if not weights:
        raise ValueError("weights must be non-empty")
    if any(w < 0 for w in weights):
        raise ValueError(f"weights must be non-negative, got {weights}")
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must not all be zero")

    shares = [w / total * n_items for w in weights]
    sizes = [int(s) for s in shares]
    remainder = n_items - sum(sizes)
    # Largest fractional remainders get the leftover items.
    order = sorted(
        range(len(weights)), key=lambda i: shares[i] - sizes[i], reverse=True
    )
    for i in order[:remainder]:
        sizes[i] += 1

    out = []
    start = 0
    for size in sizes:
        out.append((start, start + size))
        start += size
    return out


def blocks_nbytes(blocks, bytes_of) -> float:
    """Total modelled bytes across *blocks* under the sizing model
    *bytes_of* (e.g. ``app.block_bytes`` for input volume,
    ``app.map_output_bytes`` for the emitted intermediates).

    This is the data-size annotation the task-DAG runtime puts on its
    edges (:func:`repro.runtime.phases.iteration_graph`) and the
    graph-partition policy balances its min-cut on — bookkeeping only,
    never a simulated cost.
    """
    return float(sum(bytes_of(block) for block in blocks))
