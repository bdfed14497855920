"""Compiled inference engine: trace eager forwards once, replay as flat
numpy kernel programs.

The eager :class:`~repro.nn.tensor.Tensor` layer pays per-op Python
dispatch, autograd bookkeeping and fresh numpy allocations on every
call — fine for training, pure tax on the closed-loop inference path,
which never needs gradients.  This module removes that tax without
forking the math:

1. **Trace.**  A model's forward runs *once* through the existing eager
   ops inside a :class:`recording` context.  Every instrumented op
   (conv2d, eval batch-norm, max-pool, matmul, elementwise, shape ops —
   see the ``emit`` calls in ``tensor.py`` / ``functional.py``) appends
   a record of ``(op, inputs, output, attrs)`` keyed by the identity of
   the numpy arrays flowing through.  Recording refuses to start while
   gradients are enabled: a captured graph must never embed training
   behaviour.
2. **Lower.**  The record list is sliced backward from the requested
   outputs (dead ops — e.g. branches masked off by the active
   configuration, or side-products like attention maps — simply drop
   out), constants are folded (a parameter's ``w.T`` happens at compile
   time, not per frame), adjacent ``conv → bn → relu`` records are
   fused into single steps, and every step is specialized into a plain
   python closure over **preallocated output/workspace buffers**
   (``out=`` writes) and **cached im2col gather-index maps** keyed by
   ``(shape, kernel, stride)``.
3. **Replay.**  :class:`Program` executes the flat step list on new
   inputs: no Tensors, no graph, and O(1) fresh allocations per replay
   after warm-up.

Bit-identity contract
---------------------
Replay performs the *same arithmetic in the same order* as the eager
ops it was traced from: GEMMs keep their exact operand shapes and
layouts (including the ``batch_invariant`` per-sample treatment — the
recorded flag is baked into each matmul step, and replay calls the very
same helpers so the per-shape stability verdicts are shared with eager
mode), reductions keep their axes, and dtype promotions/casts are
reproduced.  Every compiled program is additionally **verified at
compile time**: it is replayed on the traced inputs and each output is
compared bit-for-bit against the eager result; any mismatch raises
instead of producing a silently-divergent program.

Program identity and memory
---------------------------
Programs are cached in a process-wide LRU keyed by (site, module,
input shapes/dtypes, ``batch_invariant`` flag) — one program per
distinct sub-batch shape, exactly mirroring the eager GEMM shapes the
bit-identity contract requires.  All replay buffers are carved from a
single bump-allocated pool that every replay resets (see
``_ReplayPool``), so hundreds of cached shape variants still execute
in the same few cache-warm megabytes, and a program's outputs are only
valid until the next replay — sites that retain results copy them.

Escape hatch: set ``REPRO_NO_COMPILE=1`` to disable compilation
globally — every site falls back to the eager path.
"""

from __future__ import annotations

import math
import os
from time import perf_counter
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from . import tensor as _tensor_mod
from .tensor import (
    Tensor,
    _invariant_stacked_matmul,
    is_grad_enabled,
)

__all__ = [
    "TraceError",
    "recording",
    "is_recording",
    "trace",
    "Program",
    "ProgramCache",
    "use_compiled",
    "compiled_active",
    "compile_disabled",
    "maybe_run",
    "warm_up",
    "program_cache",
    "im2col_indices",
    "set_kernel_profiler",
    "engine_stats",
]

# Arrays at most this many elements with unknown provenance are frozen
# as trace-time constants (inline scalars like 1/sqrt(d)); anything
# larger must be a declared input or parameter, or tracing fails loudly.
_SMALL_CONST_ELEMS = 256


class TraceError(RuntimeError):
    """A forward could not be captured as a replayable program."""


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
@dataclass
class _Record:
    op: str
    out: np.ndarray
    ins: tuple[np.ndarray, ...]
    attrs: dict


class _Recorder:
    def __init__(self) -> None:
        self.records: list[_Record] = []
        # id(out-array) -> producing record; references keep ids stable.
        self.by_id: dict[int, _Record] = {}
        # Every Tensor._make output seen during the trace — arrays here
        # that no record produced came from an un-instrumented op and
        # must never be frozen as constants (their values are
        # input-dependent).
        self.made: set[int] = set()

    def add(self, op: str, out: np.ndarray, ins: tuple[np.ndarray, ...],
            **attrs) -> None:
        rec = _Record(op, out, ins, attrs)
        self.records.append(rec)
        self.by_id[id(out)] = rec


def is_recording() -> bool:
    """True while a :class:`recording` context is capturing ops."""
    return _tensor_mod._EMIT is not None


class recording:
    """Context that captures instrumented eager ops into a tape.

    While active, the instrumented ops in ``tensor.py`` /
    ``functional.py`` call the hook installed at ``tensor._EMIT`` with
    every executed op.  Refuses to start while gradients are enabled:
    compiled programs are inference-only, and capturing a graph-building
    forward would bake autograd-mode behaviour (e.g. the masked relu)
    into the replay.  Nesting is likewise rejected — one tape at a time.
    """

    def __init__(self) -> None:
        self.recorder = _Recorder()

    def __enter__(self) -> "recording":
        if is_grad_enabled():
            raise TraceError(
                "recording requires gradients to be disabled; wrap the "
                "traced call in no_grad()"
            )
        if _tensor_mod._EMIT is not None:
            raise TraceError("recording contexts cannot be nested")
        _tensor_mod._EMIT = self.recorder.add
        _tensor_mod._TRACK = self.recorder.made.add
        return self

    def __exit__(self, *exc: object) -> None:
        _tensor_mod._EMIT = None
        _tensor_mod._TRACK = None


# ----------------------------------------------------------------------
# im2col gather-index maps
# ----------------------------------------------------------------------
# LRU-bounded like the program cache it serves: index maps are several
# MB each at realistic feature-map sizes, and a long many-shape sweep
# must not accumulate them past the programs that reference them (a
# re-derived map costs microseconds).
_IM2COL_INDEX: OrderedDict[tuple, np.ndarray] = OrderedDict()
_IM2COL_MAX_ENTRIES = 256


def im2col_indices(c: int, h: int, w: int, kh: int, kw: int,
                   sh: int, sw: int,
                   es: tuple[int, int, int] | None = None) -> np.ndarray:
    """Gather map turning one flattened (C,H,W) sample into im2col rows.

    ``idx[row, col]`` is the within-sample *element offset* of the input
    pixel at patch position ``row = oh*Wo + ow``, column
    ``col = (c*kh + i)*kw + j`` — exactly the layout
    ``functional._im2col`` + reshape produces.  ``es`` gives the
    per-axis element strides of the sample's physical layout (defaults
    to C-contiguous ``(h*w, w, 1)``); the engine passes the traced
    array's actual strides so NHWC-ordered intermediates are gathered
    in place, without a C-ordering copy.  Cached per (shape, kernel,
    stride, layout): the map depends on nothing else.
    """
    es = es or (h * w, w, 1)
    key = (c, h, w, kh, kw, sh, sw, es)
    cached = _IM2COL_INDEX.get(key)
    if cached is not None:
        _IM2COL_INDEX.move_to_end(key)
        return cached
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    oh = np.arange(ho)[:, None, None, None, None] * sh  # row origin (y)
    ow = np.arange(wo)[None, :, None, None, None] * sw  # row origin (x)
    cc = np.arange(c)[None, None, :, None, None]
    ki = np.arange(kh)[None, None, None, :, None]
    kj = np.arange(kw)[None, None, None, None, :]
    flat = cc * es[0] + (oh + ki) * es[1] + (ow + kj) * es[2]
    idx = np.ascontiguousarray(flat.reshape(ho * wo, c * kh * kw))
    _IM2COL_INDEX[key] = idx
    while len(_IM2COL_INDEX) > _IM2COL_MAX_ENTRIES:
        _IM2COL_INDEX.popitem(last=False)
    return idx


# ----------------------------------------------------------------------
# Replay pool
# ----------------------------------------------------------------------
# All replay buffers — step outputs, im2col gather targets, batch-norm
# float64 scratch — are carved from ONE bump-allocated block that every
# program resets on entry.  Two reasons over per-program preallocation:
#
# * Cache locality.  A sweep compiles hundreds of programs (one per
#   sub-batch shape); giving each its own buffers builds a rotation of
#   cold memory hundreds of MB wide, which measurably *loses* to the
#   eager path's malloc reuse of hot heap pages.  One shared block
#   keeps every replay in the same few MB of cache-warm memory.
# * O(1) data allocations.  Carving views from the block allocates no
#   fresh data memory per replay; the block grows (rarely) to the
#   high-water mark of the largest program and is then stable.
#
# Consequence: a program's outputs are views into the pool and are only
# valid until the next replay of ANY program.  Integration sites that
# retain results across replays pass ``copy=True`` to ``maybe_run``.
#
# Every request's shape, dtype and byte size is fixed when its kernel is
# built (see ``_pool_buffer``), so a replay allocation is a bump of the
# offset plus one ndarray view.
_ALIGN = 64


def _sizing(shape: Sequence[int],
            dtype) -> tuple[int, int, np.dtype, tuple[int, ...]]:
    """Resolve a pool request once: ``(nbytes, padded, dtype, shape)``.

    ``padded`` rounds ``nbytes`` up to the pool's 64-byte alignment;
    shapes may hold numpy integers and come back as python ints.
    """
    shape = tuple(int(d) for d in shape)
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    return nbytes, (nbytes + _ALIGN - 1) & ~(_ALIGN - 1), dtype, shape


class _ReplayPool:
    def __init__(self, nbytes: int = 1 << 24) -> None:
        self.block = np.zeros(nbytes, dtype=np.uint8)
        self.offset = 0

    def reset(self) -> None:
        self.offset = 0

    def alloc(self, nbytes: int, padded: int, dtype: np.dtype,
              shape: tuple[int, ...]) -> np.ndarray:
        """A view of ``shape``/``dtype`` into the block, sized by ``_sizing``."""
        start = self.offset
        end = start + padded
        if end > self.block.nbytes:
            # Grow to the next power of two covering the request; old
            # views (from replays already consumed) die with the block.
            size = self.block.nbytes
            while size < end:
                size *= 2
            self.block = np.zeros(size, dtype=np.uint8)
            start, end = 0, padded
        self.offset = end
        return np.ndarray(shape, dtype, buffer=self.block, offset=start)


_POOL = _ReplayPool()


@lru_cache(maxsize=4096)
def _pool_buffer(shape: tuple[int, ...], dtype) -> Callable[[], np.ndarray]:
    """Build-time allocator for a C-ordered pool buffer.

    Compiled programs request ~9x more buffers than there are distinct
    (shape, dtype) pairs, so equal requests share one ``partial`` over
    the process-wide pool (smaller and faster to call than a closure).
    """
    return partial(_POOL.alloc, *_sizing(shape, dtype))


def _pool_like(ref: np.ndarray, dtype=None) -> Callable[[], np.ndarray]:
    """Build-time allocator for pool buffers with ``ref``'s stride order.

    numpy ufuncs and reductions allocate outputs in the K-order of their
    inputs — the eager pipeline therefore runs physically NHWC from the
    first conv on — and they *choose their inner loops* from operand
    layout.  Forcing C-order replay buffers was measured to cost up to
    16x on the pooling reduce, so replay buffers replicate the traced
    output's axis ordering exactly: allocate C-contiguously in
    stride-descending axis order, then view back to the logical shape.
    """
    strides = ref.strides
    perm = sorted(range(ref.ndim), key=lambda i: (-strides[i], i))
    inv = tuple(int(i) for i in np.argsort(perm))
    pshape = tuple(ref.shape[p] for p in perm)
    dtype = ref.dtype if dtype is None else dtype
    if perm == list(range(ref.ndim)):
        return _pool_buffer(ref.shape, dtype)
    buffer = _pool_buffer(pshape, dtype)

    def alloc() -> np.ndarray:
        return buffer().transpose(inv)

    return alloc


# ----------------------------------------------------------------------
# Lowering IR
# ----------------------------------------------------------------------
@dataclass
class _Node:
    op: str
    out_id: int
    in_ids: tuple[int, ...]
    attrs: dict
    out_ref: np.ndarray  # eager output (shape/dtype/layout template)
    in_refs: tuple[np.ndarray, ...]  # eager inputs (layout templates)


@dataclass
class _Step:
    slot: int
    run: Callable[[list], np.ndarray]
    label: str


def _as_arrays(values: Sequence) -> list[np.ndarray]:
    out = []
    for v in values:
        out.append(v.data if isinstance(v, Tensor) else np.asarray(v))
    return out


def trace(fn: Callable, example_inputs: Sequence, params: Sequence[np.ndarray] = (),
          label: str = "program", verify: bool = True) -> "Program":
    """Capture ``fn(*example_inputs)`` and lower it to a :class:`Program`.

    ``params`` lists arrays allowed to be captured by reference
    (module parameters and buffers); any *large* array the trace
    consumes that is neither an input nor listed here raises
    :class:`TraceError` — it would mean an un-instrumented op produced
    it, and replay would silently freeze its value.
    """
    from .tensor import no_grad

    inputs = _as_arrays(example_inputs)
    if len({id(a) for a in inputs}) != len(inputs):
        # Aliased examples would collapse to one input slot and make
        # later replays silently ignore all but one runtime argument.
        raise TraceError(f"{label}: example inputs must be distinct arrays")
    ctx = recording()
    with no_grad(), ctx:
        raw_out = fn(*[Tensor(a) for a in inputs])
    if isinstance(raw_out, (tuple, list)):
        outputs = _as_arrays(raw_out)
    else:
        outputs = _as_arrays([raw_out])
    return _lower(ctx.recorder, inputs, outputs, set(id(p) for p in params),
                  label=label, verify=verify)


# ----------------------------------------------------------------------
# Passes: slice -> fold -> fuse -> build
# ----------------------------------------------------------------------
def _lower(rec: _Recorder, inputs: list[np.ndarray], outputs: list[np.ndarray],
           param_ids: set[int], label: str, verify: bool) -> "Program":
    input_ids = {id(a): i for i, a in enumerate(inputs)}

    # Backward slice from the outputs (dead-op elimination).
    needed: set[int] = set()
    stack = [id(o) for o in outputs]
    while stack:
        oid = stack.pop()
        if oid in needed or oid in input_ids:
            continue
        record = rec.by_id.get(oid)
        if record is None:
            continue  # leaf: parameter or constant, classified below
        needed.add(oid)
        stack.extend(id(a) for a in record.ins)
    nodes = [
        _Node(r.op, id(r.out), tuple(id(a) for a in r.ins), r.attrs, r.out,
              r.ins)
        for r in rec.records
        if id(r.out) in needed
    ]

    # Classify leaves + fold constants.  A record whose inputs are all
    # constants produced its (already computed, bit-exact) output at
    # trace time — that output simply *becomes* a constant.
    constants: dict[int, np.ndarray] = {}

    def classify_leaf(aid: int, arr: np.ndarray) -> None:
        if aid in input_ids or aid in constants:
            return
        if aid in param_ids:
            constants[aid] = arr
            return
        # Arrays built by Tensor._make during the trace are op outputs;
        # if no record produced them, an un-instrumented op did — their
        # values depend on the inputs and must never be frozen, however
        # small.  Anything else small is a genuine inline constant
        # (1/sqrt(d)-style scalars wrapped by as_tensor).
        if aid not in rec.made and arr.size <= _SMALL_CONST_ELEMS:
            constants[aid] = arr
            return
        raise TraceError(
            f"{label}: array of shape {arr.shape} has unknown provenance "
            "(produced by an op without trace instrumentation?)"
        )

    produced = {n.out_id for n in nodes}
    live_nodes: list[_Node] = []
    for node in nodes:
        record = rec.by_id[node.out_id]
        for aid, arr in zip(node.in_ids, record.ins):
            if aid not in produced:
                classify_leaf(aid, arr)
        if all(aid in constants for aid in node.in_ids):
            constants[node.out_id] = node.out_ref  # fold
            produced.discard(node.out_id)
        else:
            live_nodes.append(node)
    for out_arr in outputs:
        if id(out_arr) not in rec.by_id:  # raw leaf (input/constant output)
            classify_leaf(id(out_arr), out_arr)

    live_nodes = _fuse_attention(live_nodes, outputs, constants)
    live_nodes = _fuse(live_nodes, outputs)

    # Slot allocation: inputs, then constants, then step outputs.
    slot_of: dict[int, int] = {}
    values: list[np.ndarray | None] = []
    input_slots: list[int] = [0] * len(inputs)
    for aid, pos in input_ids.items():
        slot_of[aid] = len(values)
        input_slots[pos] = len(values)
        values.append(None)
    for aid, arr in constants.items():
        if aid not in slot_of:
            slot_of[aid] = len(values)
            values.append(arr)
    steps: list[_Step] = []
    for node in live_nodes:
        slot_of[node.out_id] = len(values)
        values.append(None)
        in_slots = tuple(slot_of[a] for a in node.in_ids)
        builder = _KERNELS.get(node.op)
        if builder is None:
            raise TraceError(f"{label}: no replay kernel for op '{node.op}'")
        steps.append(_Step(slot_of[node.out_id],
                           builder(node, in_slots), node.op))
    try:
        output_slots = [slot_of[id(o)] for o in outputs]
    except KeyError:  # output is a raw leaf we never classified
        raise TraceError(f"{label}: an output has unknown provenance")

    # Persistent-buffer estimate for LRU byte accounting: view-producing
    # ops and arena-shared scratch don't add program-owned memory.
    nbytes = sum(
        node.out_ref.nbytes
        for node in live_nodes
        if node.op not in ("transpose", "getitem")
    )
    program = Program(label, steps, values, input_slots, output_slots,
                      nbytes=nbytes)
    if verify:
        replayed = program(*inputs)
        for got, want in zip(replayed, outputs):
            if not (got.shape == want.shape and got.dtype == want.dtype
                    and np.array_equal(got, want, equal_nan=True)):
                raise TraceError(
                    f"{label}: compiled replay diverged from the traced "
                    "eager forward (bit-identity verification failed)"
                )
    return program


def _fuse(nodes: list[_Node], outputs: list[np.ndarray]) -> list[_Node]:
    """Peephole fusion: conv→bn→relu / conv→bn / conv→relu / add→relu.

    Only fuses when the producer's output has exactly one consumer and
    is not itself a program output — fusion must never change what any
    other step (or the caller) observes.
    """
    out_ids = {id(o) for o in outputs}
    consumers: dict[int, int] = {}
    for node in nodes:
        for aid in node.in_ids:
            consumers[aid] = consumers.get(aid, 0) + 1

    def fusable(producer: _Node) -> bool:
        return consumers.get(producer.out_id, 0) == 1 and producer.out_id not in out_ids

    fused: list[_Node] = []
    by_out: dict[int, _Node] = {}
    for node in nodes:
        prev = by_out.get(node.in_ids[0]) if node.in_ids else None
        if (
            node.op == "bn_eval"
            and prev is not None
            and prev.op == "conv2d"
            and fusable(prev)
        ):
            merged = _Node("conv2d", node.out_id, prev.in_ids,
                           {**prev.attrs, "bn": node.attrs}, node.out_ref,
                           prev.in_refs)
            fused.remove(prev)
            fused.append(merged)
            by_out.pop(prev.out_id, None)
            by_out[merged.out_id] = merged
            continue
        if node.op == "relu" and prev is not None and fusable(prev) and (
            prev.op == "conv2d" or prev.op == "add"
        ):
            merged = _Node(prev.op, node.out_id, prev.in_ids,
                           {**prev.attrs, "relu": True}, node.out_ref,
                           prev.in_refs)
            fused.remove(prev)
            fused.append(merged)
            by_out.pop(prev.out_id, None)
            by_out[merged.out_id] = merged
            continue
        fused.append(node)
        by_out[node.out_id] = node
    return fused


def _fuse_attention(nodes: list[_Node], outputs: list[np.ndarray],
                    constants: dict[int, np.ndarray]) -> list[_Node]:
    """Chain fusion for scaled-dot-product attention.

    Collapses ``matmul(q, kT) → mul(·, 1/sqrt(d)) → softmax → matmul(·, v)``
    into one ``attn_chain`` step.  The intermediate scores are float32
    but the scale constant is a float64 python scalar, so eager promotes
    everything downstream to float64 — that promotion is part of the
    bit-identity contract and stays; the fusion win is one kernel
    dispatch and one pool pass instead of four (the softmax runs
    in-place on the scaled buffer, exactly like :func:`_k_softmax`).

    Same legality rule as :func:`_fuse`: every interior value must have
    exactly one consumer and must not be a program output — the chain
    may never hide a value some other step (or the caller) reads.  The
    compile-time replay verification in :func:`_lower` then proves the
    fused kernel bit-identical to the traced eager forward.
    """
    out_ids = {id(o) for o in outputs}
    consumers: dict[int, int] = {}
    for node in nodes:
        for aid in node.in_ids:
            consumers[aid] = consumers.get(aid, 0) + 1

    def interior(node: _Node) -> bool:
        return consumers.get(node.out_id, 0) == 1 and node.out_id not in out_ids

    by_out = {node.out_id: node for node in nodes}
    consumed_by: dict[int, _Node] = {}
    for node in nodes:
        for aid in node.in_ids:
            consumed_by[aid] = node  # only queried where the count is 1

    drop: set[int] = set()
    replace: dict[int, _Node] = {}
    for sm in nodes:
        if sm.op != "softmax" or not interior(sm):
            continue
        mul = by_out.get(sm.in_ids[0])
        if mul is None or mul.op != "mul" or not interior(mul):
            continue
        scalar_ids = [a for a in mul.in_ids
                      if a in constants and constants[a].size == 1]
        tensor_ids = [a for a in mul.in_ids if a not in scalar_ids]
        if len(scalar_ids) != 1 or len(tensor_ids) != 1:
            continue
        score_mm = by_out.get(tensor_ids[0])
        if score_mm is None or score_mm.op != "matmul" or not interior(score_mm):
            continue
        out_mm = consumed_by.get(sm.out_id)
        if out_mm is None or out_mm.op != "matmul" or out_mm.in_ids[0] != sm.out_id:
            continue
        fused = _Node(
            "attn_chain",
            out_mm.out_id,
            (score_mm.in_ids[0], score_mm.in_ids[1], out_mm.in_ids[1]),
            {
                "scale": constants[scalar_ids[0]],
                "axis": sm.attrs["axis"],
                "invariant_scores": score_mm.attrs.get("invariant", False),
                "invariant_out": out_mm.attrs.get("invariant", False),
                "score_ref": score_mm.out_ref,
                "scaled_ref": mul.out_ref,
            },
            out_mm.out_ref,
            (score_mm.in_refs[0], score_mm.in_refs[1], out_mm.in_refs[1]),
        )
        drop.update((score_mm.out_id, mul.out_id, sm.out_id))
        replace[out_mm.out_id] = fused

    if not replace:
        return nodes
    return [replace.get(node.out_id, node) for node in nodes
            if node.out_id not in drop]


# ----------------------------------------------------------------------
# Replay kernels
# ----------------------------------------------------------------------
# Each builder returns run(values) -> np.ndarray, specialized with
# preallocated buffers.  The arithmetic mirrors the eager op bit for bit
# (same numpy expressions, same dtypes, same operand layouts).

def _k_conv2d(node: _Node, ins: tuple[int, ...]) -> Callable:
    from .functional import _invariant_matmul

    a = node.attrs
    wd: np.ndarray = a["weight"]
    bias: np.ndarray | None = a.get("bias")
    sh, sw = a["stride"]
    invariant: bool = a["invariant"]
    bn: dict | None = a.get("bn")
    relu: bool = a.get("relu", False)
    n, c, h, w = a["in_shape"]
    f, _, kh, kw = wd.shape
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    rows, k = ho * wo, c * kh * kw
    # Gather straight off the input's physical layout when it is a
    # permutation-contiguous array (the eager pipeline runs NHWC after
    # the first conv): the index map encodes the actual strides and the
    # flattening below is then a view, not a C-ordering copy.
    in_ref = node.in_refs[0]
    es = tuple(s // in_ref.itemsize for s in in_ref.strides)
    sample_perm = sorted(range(1, 4), key=lambda i: (-es[i], i))
    phys_axes = (0, *sample_perm)
    telescoped = 1
    viewable = es[0] == c * h * w
    for axis in reversed(sample_perm):
        viewable = viewable and es[axis] == telescoped
        telescoped *= in_ref.shape[axis]
    if viewable:
        idx = im2col_indices(c, h, w, kh, kw, sh, sw, es=es[1:])

        def flat2d(x: np.ndarray) -> np.ndarray:
            return x.transpose(phys_axes).reshape(n, c * h * w)
    else:  # exotic layout: fall back to a C-ordered flatten (may copy)
        idx = im2col_indices(c, h, w, kh, kw, sh, sw)

        def flat2d(x: np.ndarray) -> np.ndarray:
            return x.reshape(n, c * h * w)
    w_t = wd.reshape(f, k).T  # same view layout the eager GEMM consumes
    # The attention path can promote activations to float64, so the
    # im2col/GEMM buffers must follow the *input* dtype, not the weights'.
    in_dtype = a["in_dtype"]
    gemm_dtype = np.result_type(in_dtype, wd.dtype)
    out_alloc = _pool_like(node.out_ref)
    ws_alloc = _pool_like(node.out_ref, dtype=np.float64)
    # conv+bias feeding a fused bn: the bias add must stay in the GEMM
    # dtype (adding in float64 would change bits), but its result is
    # step-transient, so it lives in the pool too.
    bias_alloc = _pool_like(node.out_ref, dtype=gemm_dtype)
    cols_alloc = _pool_buffer((n, rows, k), in_dtype)
    gemm_alloc = _pool_buffer((n * rows, f), gemm_dtype)
    x_slot = ins[0]
    bias_r = None if bias is None else bias.reshape(1, f, 1, 1)
    if bn is not None:
        gamma, beta = bn["gamma"], bn["beta"]
        mean, var = bn["mean"], bn["var"]
        eps = bn["eps"]
        view = (1, -1, 1, 1)

    def run(values: list) -> np.ndarray:
        x = values[x_slot]
        cols = cols_alloc()
        np.take(flat2d(x), idx, axis=1, out=cols)
        cols2 = cols.reshape(n * rows, k)
        gemm = gemm_alloc()
        if invariant:
            _invariant_matmul(cols2, w_t, n, rows, f, out=gemm)
        else:
            np.matmul(cols2, w_t, out=gemm)
        conv = gemm.reshape(n, ho, wo, f).transpose(0, 3, 1, 2)
        if bn is not None:
            if bias_r is None:
                src = conv
            else:
                src = bias_alloc()
                np.add(conv, bias_r, out=src)
            # Same expression as functional.batch_norm (eval):
            #   ((x - mean) * inv_std) * gamma + beta, float64, then cast.
            # inv_std is recomputed per replay on purpose: mean/var are
            # captured by reference, so in-place buffer updates (e.g. a
            # post-compile load_state_dict) stay honored — it is a
            # per-channel vector op, trivia next to the GEMM.
            ws64 = ws_alloc()
            inv_std = 1.0 / np.sqrt(var + eps)
            np.subtract(src, mean.reshape(view), out=ws64)
            np.multiply(ws64, inv_std.reshape(view), out=ws64)
            np.multiply(ws64, gamma.reshape(view), out=ws64)
            np.add(ws64, beta.reshape(view), out=ws64)
            out = out_alloc()
            np.copyto(out, ws64)  # astype(float32)-equivalent cast
            if relu:
                np.maximum(out, 0, out=out)
            return out
        if bias_r is not None:
            out = out_alloc()
            np.add(conv, bias_r, out=out)
            if relu:
                np.maximum(out, 0, out=out)
            return out
        if relu:
            out = out_alloc()
            np.maximum(conv, 0, out=out)
            return out
        # Eager conv without bias returns exactly this (non-contiguous)
        # transpose view; downstream ops consumed the view's values.
        return conv

    return run


def _k_bn_eval(node: _Node, ins: tuple[int, ...]) -> Callable:
    a = node.attrs
    gamma, beta = a["gamma"], a["beta"]
    mean, var = a["mean"], a["var"]
    eps = a["eps"]
    view = (1, -1, 1, 1) if node.out_ref.ndim == 4 else (1, -1)
    relu = a.get("relu", False)
    out_alloc = _pool_like(node.out_ref)
    ws_alloc = _pool_like(node.out_ref, dtype=np.float64)
    x_slot = ins[0]

    def run(values: list) -> np.ndarray:
        x = values[x_slot]
        ws64 = ws_alloc()
        inv_std = 1.0 / np.sqrt(var + eps)
        np.subtract(x, mean.reshape(view), out=ws64)
        np.multiply(ws64, inv_std.reshape(view), out=ws64)
        np.multiply(ws64, gamma.reshape(view), out=ws64)
        np.add(ws64, beta.reshape(view), out=ws64)
        out = out_alloc()
        np.copyto(out, ws64)
        if relu:
            np.maximum(out, 0, out=out)
        return out

    return run


def _k_maxpool2(node: _Node, ins: tuple[int, ...]) -> Callable:
    k = node.attrs["kernel"]
    out_alloc = _pool_like(node.out_ref)
    x_slot = ins[0]

    def run(values: list) -> np.ndarray:
        x = values[x_slot]
        n, c, h, w = x.shape
        view = x.reshape(n, c, h // k, k, w // k, k)
        out = out_alloc()
        np.max(view, axis=(3, 5), out=out)
        return out

    return run


def _binary(ufunc):
    def build(node: _Node, ins: tuple[int, ...]) -> Callable:
        relu = node.attrs.get("relu", False)
        out_alloc = _pool_like(node.out_ref)
        a_slot, b_slot = ins

        def run(values: list) -> np.ndarray:
            out = out_alloc()
            ufunc(values[a_slot], values[b_slot], out=out)
            if relu:
                np.maximum(out, 0, out=out)
            return out

        return run

    return build


def _unary(fn):
    def build(node: _Node, ins: tuple[int, ...]) -> Callable:
        out_alloc = _pool_like(node.out_ref)
        x_slot = ins[0]

        def run(values: list) -> np.ndarray:
            out = out_alloc()
            fn(values[x_slot], out)
            return out

        return run

    return build


def _k_matmul(node: _Node, ins: tuple[int, ...]) -> Callable:
    invariant = node.attrs.get("invariant", False)
    out_alloc = _pool_buffer(node.out_ref.shape, node.out_ref.dtype)
    a_slot, b_slot = ins
    if invariant:
        def run(values: list) -> np.ndarray:
            out = out_alloc()
            return _invariant_stacked_matmul(
                values[a_slot], values[b_slot], out=out
            )

        return run

    def run(values: list) -> np.ndarray:
        out = out_alloc()
        np.matmul(values[a_slot], values[b_slot], out=out)
        return out

    return run


def _k_softmax(node: _Node, ins: tuple[int, ...]) -> Callable:
    axis = node.attrs["axis"]
    shape, dtype = node.out_ref.shape, node.out_ref.dtype
    red_shape = list(shape)
    red_shape[axis if axis >= 0 else node.out_ref.ndim + axis] = 1
    red_alloc = _pool_buffer(tuple(red_shape), dtype)
    work_alloc = _pool_like(node.out_ref)
    x_slot = ins[0]

    def run(values: list) -> np.ndarray:
        x = values[x_slot]
        red = red_alloc()
        work = work_alloc()
        np.max(x, axis=axis, keepdims=True, out=red)
        np.subtract(x, red, out=work)
        np.exp(work, out=work)
        np.sum(work, axis=axis, keepdims=True, out=red)
        np.divide(work, red, out=work)
        return work

    return run


def _k_attn_chain(node: _Node, ins: tuple[int, ...]) -> Callable:
    a = node.attrs
    scale: np.ndarray = a["scale"]
    axis: int = a["axis"]
    inv_scores: bool = a["invariant_scores"]
    inv_out: bool = a["invariant_out"]
    score_ref: np.ndarray = a["score_ref"]
    scaled_ref: np.ndarray = a["scaled_ref"]
    red_shape = list(scaled_ref.shape)
    red_shape[axis if axis >= 0 else scaled_ref.ndim + axis] = 1
    # The scaled scores promote to the scale constant's dtype (float64
    # for the 1/sqrt(d) python scalar) — one pool buffer carries the
    # mul and the whole in-place softmax, mirroring _k_softmax.
    work_alloc = _pool_like(scaled_ref)
    scores_alloc = _pool_buffer(score_ref.shape, score_ref.dtype)
    red_alloc = _pool_buffer(tuple(red_shape), scaled_ref.dtype)
    out_alloc = _pool_buffer(node.out_ref.shape, node.out_ref.dtype)
    q_slot, kt_slot, v_slot = ins

    def run(values: list) -> np.ndarray:
        scores = scores_alloc()
        if inv_scores:
            _invariant_stacked_matmul(values[q_slot], values[kt_slot],
                                      out=scores)
        else:
            np.matmul(values[q_slot], values[kt_slot], out=scores)
        work = work_alloc()
        np.multiply(scores, scale, out=work)
        red = red_alloc()
        np.max(work, axis=axis, keepdims=True, out=red)
        np.subtract(work, red, out=work)
        np.exp(work, out=work)
        np.sum(work, axis=axis, keepdims=True, out=red)
        np.divide(work, red, out=work)
        out = out_alloc()
        if inv_out:
            _invariant_stacked_matmul(work, values[v_slot], out=out)
        else:
            np.matmul(work, values[v_slot], out=out)
        return out

    return run


def _k_reshape(node: _Node, ins: tuple[int, ...]) -> Callable:
    target = node.out_ref.shape
    out_alloc = _pool_buffer(target, node.out_ref.dtype)
    x_slot = ins[0]

    def run(values: list) -> np.ndarray:
        x = values[x_slot]
        if x.flags.c_contiguous:
            return x.reshape(target)
        # Non-contiguous source: the eager reshape copied; do the same
        # strided copy into pool memory (same element order).
        out = out_alloc()
        np.copyto(out.reshape(x.shape), x)
        return out

    return run


def _k_transpose(node: _Node, ins: tuple[int, ...]) -> Callable:
    axes = node.attrs["axes"]
    x_slot = ins[0]

    def run(values: list) -> np.ndarray:
        return values[x_slot].transpose(axes)

    return run


def _k_pad2d(node: _Node, ins: tuple[int, ...]) -> Callable:
    ph, pw = node.attrs["padding"]
    h, w = node.out_ref.shape[-2:]
    interior = (Ellipsis, slice(ph, h - ph), slice(pw, w - pw))
    out_alloc = _pool_buffer(node.out_ref.shape, node.out_ref.dtype)
    x_slot = ins[0]

    def run(values: list) -> np.ndarray:
        out = out_alloc()
        # Zero only the border; the interior is fully overwritten.
        if ph:
            out[..., :ph, :] = 0
            out[..., h - ph :, :] = 0
        if pw:
            out[..., :, :pw] = 0
            out[..., :, w - pw :] = 0
        out[interior] = values[x_slot]
        return out

    return run


def _k_getitem(node: _Node, ins: tuple[int, ...]) -> Callable:
    index = node.attrs["index"]
    x_slot = ins[0]

    def run(values: list) -> np.ndarray:
        return values[x_slot][index]

    return run


def _k_concat(node: _Node, ins: tuple[int, ...]) -> Callable:
    axis = node.attrs["axis"]
    out_alloc = _pool_like(node.out_ref)

    def run(values: list) -> np.ndarray:
        out = out_alloc()
        np.concatenate([values[s] for s in ins], axis=axis, out=out)
        return out

    return run


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> None:
    np.negative(x, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)


_KERNELS: dict[str, Callable[[_Node, tuple[int, ...]], Callable]] = {
    "conv2d": _k_conv2d,
    "bn_eval": _k_bn_eval,
    "maxpool2": _k_maxpool2,
    "add": _binary(np.add),
    "sub": _binary(np.subtract),
    "mul": _binary(np.multiply),
    "div": _binary(np.divide),
    "matmul": _k_matmul,
    "relu": _unary(lambda x, out: np.maximum(x, 0, out=out)),
    "neg": _unary(lambda x, out: np.negative(x, out=out)),
    "exp": _unary(lambda x, out: np.exp(x, out=out)),
    "tanh": _unary(lambda x, out: np.tanh(x, out=out)),
    "sigmoid": _unary(_sigmoid_into),
    "softmax": _k_softmax,
    "attn_chain": _k_attn_chain,
    "reshape": _k_reshape,
    "transpose": _k_transpose,
    "pad2d": _k_pad2d,
    "getitem": _k_getitem,
    "concat": _k_concat,
}


# ----------------------------------------------------------------------
# Kernel profiling hook (repro.telemetry.profiling)
# ----------------------------------------------------------------------
# When a profiler is installed, every replayed step is wrapped in two
# monotonic-clock reads and reported as (program label, op, seconds).
# The default is None and the replay loop pays exactly one ``is None``
# check per replay — the disabled-mode overhead guard in
# tests/telemetry pins that this stays in the noise.
_PROFILER = None


def set_kernel_profiler(profiler):
    """Install (or clear, with None) the replay profiler; returns the old.

    ``repro.telemetry.profiling.kernel_profiling`` is the intended
    entry point; this setter exists so the engine never has to import
    the telemetry layer.
    """
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler
    return previous


# ----------------------------------------------------------------------
# Program
# ----------------------------------------------------------------------
class Program:
    """A compiled forward: a flat list of specialized kernel steps.

    Calling the program replays the captured computation on new inputs.
    Outputs may be views into the program's internal buffers — they are
    valid until the next replay; callers that retain results across
    replays must copy (see :func:`maybe_run`'s ``copy`` flag).
    """

    def __init__(self, label: str, steps: list[_Step],
                 values: list[np.ndarray | None], input_slots: list[int],
                 output_slots: list[int], nbytes: int = 0) -> None:
        self.label = label
        self._steps = steps
        self._values = values
        self._input_slots = input_slots
        self._output_slots = output_slots
        self.nbytes = nbytes  # persistent (non-arena) buffer estimate
        self._dynamic_slots = list(input_slots) + [s.slot for s in steps]
        self.replays = 0

    @property
    def num_steps(self) -> int:
        return len(self._steps)

    def __call__(self, *arrays: np.ndarray) -> list[np.ndarray]:
        # Reclaim the shared replay pool: every buffer of the previous
        # replay (of any program) is dead by the maybe_run contract.
        _POOL.reset()
        values = self._values
        for slot, arr in zip(self._input_slots, arrays):
            values[slot] = arr
        profiler = _PROFILER
        if profiler is None:
            for step in self._steps:
                values[step.slot] = step.run(values)
        else:
            label = self.label
            for step in self._steps:
                start = perf_counter()
                values[step.slot] = step.run(values)
                profiler.record(label, step.label, perf_counter() - start)
        self.replays += 1
        outputs = [values[s] for s in self._output_slots]
        # Drop the dynamic slots: a cached program must not pin the
        # caller's input arrays or stale pool views between replays
        # (constant slots keep their folded values).
        for slot in self._dynamic_slots:
            values[slot] = None
        return outputs

    def describe(self) -> str:
        ops = [s.label for s in self._steps]
        return f"{self.label}: {len(ops)} steps [{', '.join(ops)}]"


# ----------------------------------------------------------------------
# Cache + integration helpers
# ----------------------------------------------------------------------
def compile_disabled() -> bool:
    """True when the ``REPRO_NO_COMPILE=1`` escape hatch is set."""
    return os.environ.get("REPRO_NO_COMPILE", "") not in ("", "0")


_COMPILE_DEPTH = 0


class use_compiled:
    """Context enabling compiled-program execution for integrated sites.

    Re-entrant: nesting increases a depth counter, and compiled replay
    stays active until the outermost context exits.
    """

    def __enter__(self) -> "use_compiled":
        global _COMPILE_DEPTH
        _COMPILE_DEPTH += 1
        return self

    def __exit__(self, *exc: object) -> None:
        global _COMPILE_DEPTH
        _COMPILE_DEPTH -= 1


def compiled_active() -> bool:
    """True when integrated sites should replay compiled programs."""
    return (
        _COMPILE_DEPTH > 0
        and not compile_disabled()
        and _tensor_mod._EMIT is None
    )


@dataclass
class _Entry:
    program: Program | None  # None: compilation failed, stay eager
    owner: object = None  # keeps id(owner) stable while cached


class ProgramCache:
    """LRU of compiled programs keyed by (site, module, shapes, flags).

    Evicts by entry count *and* by the sum of the programs' persistent
    buffer bytes, so many-shape workloads (per-sub-batch branch
    programs) stay memory-bounded; a re-compiled cold shape costs one
    traced forward.
    """

    def __init__(self, maxsize: int = 1024,
                 max_bytes: int = 2048 * 1024 * 1024) -> None:
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.compiles = 0  # misses that produced a live program
        self.evictions = 0
        # Most recently resolved program (compile() warm-up introspection).
        self.last_program: Program | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.total_bytes = 0

    def lookup(self, key: tuple) -> _Entry | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            self.last_program = entry.program
        return entry

    def store(self, key: tuple, entry: _Entry) -> None:
        self.misses += 1
        self._entries[key] = entry
        if entry.program is not None:
            self.total_bytes += entry.program.nbytes
            self.compiles += 1
        self.last_program = entry.program
        while self._entries and (
            len(self._entries) > self.maxsize
            or self.total_bytes > self.max_bytes
        ):
            _, evicted = self._entries.popitem(last=False)
            self.evictions += 1
            if evicted.program is not None:
                self.total_bytes -= evicted.program.nbytes
            if evicted is entry:  # single entry above budget: keep nothing
                break

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the telemetry layer (plain ints, cheap).

        Deltas of this dict bracket a region of interest (one drive,
        one shard); the telemetry integration records those deltas as
        mergeable counters so per-shard LRU behavior aggregates
        correctly across a process pool.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "compiles": self.compiles,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "program_bytes": self.total_bytes,
        }


_CACHE = ProgramCache()


def program_cache() -> ProgramCache:
    """The process-wide program cache (shared across policies/shards)."""
    return _CACHE


def engine_stats() -> dict[str, int]:
    """Process-wide engine counters: program LRU + replay-pool footprint."""
    stats = _CACHE.stats()
    stats["pool_bytes"] = _POOL.block.nbytes
    stats["im2col_entries"] = len(_IM2COL_INDEX)
    stats["replay_fallbacks"] = _REPLAY_FALLBACKS
    return stats


# Replays that raised and were rescued by the eager fallback (a compiled
# program is a pure re-expression of the eager computation, so falling
# back changes wall time, never bits).  Module-level int rather than a
# telemetry counter: the engine never imports the telemetry layer — the
# runner diffs engine_stats() into the metrics registry instead.
_REPLAY_FALLBACKS = 0

# Test/fuzz seam: callable invoked with the site label just before every
# program replay; raising simulates a replay failure.  Installed only by
# repro.resilience.guards.inject_replay_faults — None in production.
_REPLAY_FAULT_INJECTOR = None


def set_replay_fault_injector(injector):
    """Install (or clear, with None) the replay fault injector; returns the old."""
    global _REPLAY_FAULT_INJECTOR
    previous = _REPLAY_FAULT_INJECTOR
    _REPLAY_FAULT_INJECTOR = injector
    return previous


def _collect_params(owner) -> list[np.ndarray]:
    """Parameter/buffer arrays of a Module (or object with ``.network``)."""
    module = getattr(owner, "network", owner)
    params: list[np.ndarray] = []
    named_parameters = getattr(module, "named_parameters", None)
    if named_parameters is not None:
        params.extend(p.data for _, p in named_parameters())
        params.extend(np.asarray(b) for _, b in module.named_buffers())
    return params


def warm_up(
    site: str,
    owner,
    fn: Callable,
    shapes: Sequence[tuple[int, ...]],
    invariant: bool = False,
    seed: int = 0,
) -> list[Program]:
    """Pre-compile ``fn`` for the given input shapes; returns the programs.

    The ``compile(shapes)`` entry points of the gate network and the
    branch detector route here.  Warm-up inputs are random, never
    zeros: the GEMM row-stability verdicts decided on first contact
    must be representative of real data.  ``invariant`` compiles the
    ``batch_invariant`` variants the windowed runner replays.  Returns
    ``[]`` when compilation is disabled.
    """
    from contextlib import nullcontext

    from .functional import batch_invariant

    rng = np.random.default_rng(seed)
    programs: list[Program] = []
    ctx = batch_invariant() if invariant else nullcontext()
    with use_compiled(), ctx:
        for shape in shapes:
            example = rng.standard_normal(shape).astype(np.float32)
            if maybe_run(site, owner, fn, (example,)) is not None:
                programs.append(_CACHE.last_program)
    return [p for p in programs if p is not None]


def maybe_run(
    site: str,
    owner,
    fn: Callable,
    inputs: Sequence,
    copy: bool = False,
) -> list[np.ndarray] | None:
    """Replay ``fn(*inputs)`` through a cached compiled program.

    Returns ``None`` when compilation is inactive (no
    :class:`use_compiled` context, escape hatch set, currently tracing)
    or when this site previously failed to compile — the caller then
    takes its eager path.  ``copy=True`` returns fresh arrays (for
    callers that retain results across replays).
    """
    from .tensor import batch_invariant_enabled

    if not compiled_active():
        return None
    arrays = _as_arrays(inputs)
    # Inputs must not live in the replay pool (the replay reclaims it
    # before reading them); integration sites pass heap arrays, but a
    # defensive copy keeps a future refactor from corrupting silently.
    arrays = [
        np.array(a) if np.may_share_memory(a, _POOL.block) else a
        for a in arrays
    ]
    invariant = batch_invariant_enabled()
    key = (site, id(owner), tuple(a.shape for a in arrays),
           tuple(a.dtype.str for a in arrays), invariant)
    entry = _CACHE.lookup(key)
    if entry is None:
        try:
            program = trace(fn, arrays, params=_collect_params(owner),
                            label=site)
        except TraceError:
            program = None
        entry = _Entry(program=program, owner=owner)
        _CACHE.store(key, entry)
    if entry.program is None:
        return None
    try:
        if _REPLAY_FAULT_INJECTOR is not None:
            _REPLAY_FAULT_INJECTOR(site)
        outs = entry.program(*arrays)
    except Exception:
        # A replay must never take the process down: count the rescue
        # and hand the caller its eager path.  Partial pool writes are
        # harmless — every replay reclaims the pool before reading it.
        global _REPLAY_FALLBACKS
        _REPLAY_FALLBACKS += 1
        return None
    if copy:
        outs = [np.array(o) for o in outs]
    return outs
