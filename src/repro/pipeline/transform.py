"""Pipeline transformation: generate per-stage task functions (MTCG).

Implements Section 3.3 "Pipeline Transform" of the paper:

* every task gets a **control-equivalent** clone of the target loop — same
  iterations, same exit points — with only its stage's instructions
  materialised and irrelevant control regions short-circuited;
* cross-stage register dependences become ``produce``/``consume`` pairs
  inserted at the *definition site* in both the producer's and consumer's
  clones, which keeps FIFO traffic aligned with control flow;
* branch conditions a stage cannot compute locally are consumed from the
  owning stage (``produce_broadcast`` for parallel consumers — the "end
  token" of Figure 1(e));
* parallel-stage workers receive a worker-id argument and **two loop
  bodies**: body 1 executes the worker's own iterations (owned + replicated
  work), body 2 executes only the replicated sections so loop-carried
  recurrences stay warm on every worker every iteration;
* live-outs are latched with ``store_liveout`` before task exit and read
  back in the parent with ``retrieve_liveout``;
* the parent's loop is replaced by ``parallel_fork``/``parallel_join``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.dominators import postdominator_tree
from ..analysis.cfg import remove_unreachable_blocks
from ..analysis.pdg import DepKind
from ..errors import TransformError
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryOp,
    CondBranch,
    Consume,
    ICmp,
    Instruction,
    Jump,
    ParallelFork,
    ParallelJoin,
    Phi,
    Produce,
    ProduceBroadcast,
    Ret,
    RetrieveLiveout,
    StoreLiveout,
    erase_all,
)
from ..ir.module import Module
from ..ir.primitives import Channel, ChannelPlan
from ..ir.types import I32, VOID, FunctionType
from ..ir.values import Argument, Constant, GlobalVariable, Value
from ..ir.verifier import verify_function
from .spec import PipelineSpec, StageKind, StageSpec


@dataclass
class TaskInfo:
    """Metadata attached to generated task functions."""

    loop_id: int
    stage_index: int
    kind: StageKind
    n_workers: int

    @property
    def is_parallel(self) -> bool:
        return self.kind is StageKind.PARALLEL


def fork_call(
    inst: ParallelFork, liveins: list[int | float]
) -> tuple[int, list[int | float]]:
    """The worker id a ``parallel_fork`` starts and the arguments its task
    is called with: the live-ins, plus the worker id for a parallel stage."""
    worker_id = inst.worker_id if inst.worker_id is not None else 0
    args = list(liveins)
    info = inst.task.task_info
    if isinstance(info, TaskInfo) and info.is_parallel:
        args.append(worker_id)
    return worker_id, args


@dataclass
class BodyPlan:
    """What one loop-body clone of a task materialises."""

    materialized: set[int]  # ids of instructions computed locally
    needed_branches: set[int]  # ids of CondBranch instructions kept
    consumed: list[Instruction]  # defs consumed from other stages, in order


@dataclass
class StagePlan:
    """All body plans of one stage (two for parallel stages)."""

    stage: StageSpec
    bodies: list[BodyPlan]  # [full] for sequential, [full, replicated] parallel

    @property
    def full(self) -> BodyPlan:
        return self.bodies[0]


@dataclass
class ChannelBinding:
    """One communicated value: its channel plus produce/consume modes."""

    value: Instruction
    channel: Channel
    producer_stage: int
    consumer_stage: int
    broadcast: bool
    #: Block where produce/consume are placed.  Defaults to the def's
    #: block; hoisted out of inner loops when the consumer only needs the
    #: value once per target-loop iteration (e.g. an inner-loop reduction
    #: result) — without hoisting, the FIFO would carry every intermediate
    #: value of the recurrence.
    placement: BasicBlock | None = None


@dataclass
class TransformResult:
    """Everything the backend and simulator need about one pipelined loop."""

    spec: PipelineSpec
    parent: Function
    tasks: list[Function]  # one per stage (parallel stage shares one task)
    channels: ChannelPlan
    bindings: list[ChannelBinding]
    liveins: list[Value]
    liveout_ids: dict[int, int]  # id(original value) -> liveout register id
    loop_id: int


def transform_loop(
    module: Module,
    spec: PipelineSpec,
    loop_id: int = 0,
    rewrite_parent: bool = True,
) -> TransformResult:
    """Generate task functions (and optionally rewrite the parent)."""
    return _Transformer(module, spec, loop_id).run(rewrite_parent)


def _plans_equal(a: list[StagePlan], b: list[StagePlan]) -> bool:
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        if len(pa.bodies) != len(pb.bodies):
            return False
        for ba, bb in zip(pa.bodies, pb.bodies):
            if ba.materialized != bb.materialized:
                return False
            if ba.needed_branches != bb.needed_branches:
                return False
            if [id(v) for v in ba.consumed] != [id(v) for v in bb.consumed]:
                return False
    return True


class _Transformer:
    def __init__(self, module: Module, spec: PipelineSpec, loop_id: int) -> None:
        self.module = module
        self.spec = spec
        self.loop = spec.loop
        self.loop_id = loop_id
        self.parent = self.loop.header.parent
        assert self.parent is not None
        self.pdg = spec.pdg
        self._loop_inst_ids = {id(i) for i in self.loop.instructions()}
        self._replicated_ids = {
            id(i) for scc in spec.replicated for i in scc.instructions
        }
        self._owner_stage: dict[int, int] = {}
        for stage in spec.stages:
            for inst in stage.owned_instructions():
                self._owner_stage[id(inst)] = stage.index
        # Control-edge sources (branch/terminator instructions) per node.
        self._ctrl_sources: dict[int, list[Instruction]] = {}
        for edge in self.pdg.edges:
            if edge.kind is DepKind.CONTROL and not edge.carried:
                self._ctrl_sources.setdefault(id(edge.dst), []).append(edge.src)
        self._exit_terminators = [
            b.terminator for b in self.loop.exiting_blocks() if b.terminator
        ]
        self._pdt = postdominator_tree(self.parent)
        from ..analysis.dominators import dominator_tree
        from ..analysis.loops import LoopInfo

        self._domtree = dominator_tree(self.parent)
        self._loopinfo = LoopInfo(self.parent, self._domtree)
        # Loop blocks in reverse postorder: cloning in this order guarantees
        # defs are visited before uses (except via back edges, which only
        # phis traverse — and phi arms are wired after the fact).
        from ..analysis.cfg import reverse_postorder

        loop_ids = {id(b) for b in self.loop.blocks}
        self.loop_rpo = [
            b for b in reverse_postorder(self.parent) if id(b) in loop_ids
        ]

    # ------------------------------------------------------------------ driver

    def run(self, rewrite_parent: bool) -> TransformResult:
        liveins = self.loop.live_ins()
        liveouts = self.loop.live_outs()
        plans = [self._plan_stage(stage) for stage in self.spec.stages]
        extras = self._materialize_orphan_liveouts(liveouts, plans)
        # Iterate: channel placements can *shrink* the skeletons (a value
        # consumed after an inner loop no longer drags the inner loop's
        # branches into the consumer), which in turn can drop channels.
        channels = ChannelPlan()
        bindings = self._plan_channels(plans, channels)
        for _ in range(5):
            placements: dict[int, dict[int, BasicBlock]] = {}
            for binding in bindings:
                if binding.placement is not None:
                    placements.setdefault(binding.consumer_stage, {})[
                        id(binding.value)
                    ] = binding.placement
            new_plans = [
                self._plan_stage(
                    stage,
                    extras.get(stage.index),
                    placements.get(stage.index, {}),
                )
                for stage in self.spec.stages
            ]
            channels = ChannelPlan()
            new_bindings = self._plan_channels(new_plans, channels)
            stable = _plans_equal(plans, new_plans) and len(new_bindings) == len(
                bindings
            )
            plans = new_plans
            bindings = new_bindings
            if stable:
                break
        liveout_ids = {id(v): i for i, v in enumerate(liveouts)}
        liveout_owner = self._liveout_owners(liveouts, plans)
        tasks = [
            self._generate_task(plan, bindings, liveins, liveouts, liveout_ids,
                                liveout_owner)
            for plan in plans
        ]
        if rewrite_parent:
            self._rewrite_parent(tasks, liveins, liveouts, liveout_ids)
        return TransformResult(
            spec=self.spec,
            parent=self.parent,
            tasks=tasks,
            channels=channels,
            bindings=bindings,
            liveins=liveins,
            liveout_ids=liveout_ids,
            loop_id=self.loop_id,
        )

    # ------------------------------------------------------------- stage plans

    def _plan_stage(
        self,
        stage: StageSpec,
        extra: set[int] | None = None,
        placements: dict[int, BasicBlock] | None = None,
    ) -> StagePlan:
        owned = {id(i) for i in stage.owned_instructions()}
        if extra:
            owned |= extra
        full = self._plan_body(owned, placements)
        bodies = [full]
        if stage.is_parallel:
            # Body 2 executes on iterations owned by *other* workers: it
            # must keep every replicated recurrence of this stage warm,
            # whether or not body 2 itself consumes the value.
            replicated_here = {
                i for i in full.materialized if i in self._replicated_ids
            }
            bodies.append(self._plan_body(replicated_here, placements))
        return StagePlan(stage, bodies)

    def _materialize_orphan_liveouts(
        self, liveouts: list[Instruction], plans: list[StagePlan]
    ) -> dict[int, set[int]]:
        """A live-out in a replicated SCC that no stage otherwise needs must
        still be computed somewhere; seed it into the last sequential stage
        (or the last stage) and re-plan it.  Returns the per-stage seeds so
        later re-planning rounds keep them."""
        extras_per_stage: dict[int, set[int]] = {}
        for value in liveouts:
            if any(id(value) in p.full.materialized for p in plans):
                continue
            if id(value) not in self._replicated_ids:
                raise TransformError(
                    f"live-out {value.short_name()} has no owning stage"
                )
            sequential = [p.stage.index for p in plans if not p.stage.is_parallel]
            target = sequential[-1] if sequential else plans[-1].stage.index
            extras_per_stage.setdefault(target, set()).add(id(value))
        for index, extra in extras_per_stage.items():
            plans[index] = self._plan_stage(self.spec.stages[index], extra)
        return extras_per_stage

    def _plan_body(
        self,
        owned: set[int],
        placements: dict[int, BasicBlock] | None = None,
    ) -> BodyPlan:
        by_id = {id(i): i for i in self.loop.instructions()}
        placements = placements or {}
        materialized = set(owned)
        needed_branches: set[int] = set()
        for term in self._exit_terminators:
            needed_branches.add(id(term))

        def branch_closure(inst: Instruction) -> bool:
            changed = False
            for src in self._ctrl_sources.get(id(inst), []):
                if isinstance(src, CondBranch) and id(src) not in needed_branches:
                    needed_branches.add(id(src))
                    changed = True
            return changed

        def block_closure(block: BasicBlock) -> bool:
            term = block.terminator
            return branch_closure(term) if term is not None else False

        changed = True
        while changed:
            changed = False
            # 1. Replicated closure: any replicated value an already-known
            #    instruction needs gets materialised locally.
            required_values: list[Value] = []
            for iid in list(materialized):
                required_values.extend(by_id[iid].operands)
            for bid in list(needed_branches):
                required_values.extend(by_id[bid].operands)
            for value in required_values:
                if (
                    isinstance(value, Instruction)
                    and id(value) in self._loop_inst_ids
                    and id(value) in self._replicated_ids
                    and id(value) not in materialized
                ):
                    scc = self.pdg.scc_of(value)
                    for inst in scc.instructions:
                        if id(inst) not in materialized:
                            materialized.add(id(inst))
                            changed = True
            # 2. Control closure: branches steering materialised work, the
            #    needed branches themselves, and the def blocks of values
            #    we will consume must all survive pruning.
            for iid in list(materialized):
                changed |= branch_closure(by_id[iid])
            for bid in list(needed_branches):
                changed |= branch_closure(by_id[bid])
            for value in required_values:
                if (
                    isinstance(value, Instruction)
                    and id(value) in self._loop_inst_ids
                    and id(value) not in materialized
                ):
                    # Consume-site alignment: the block where the value
                    # arrives (its placement if hoisted, else its def
                    # block) must survive skeleton pruning.
                    home = placements.get(id(value), value.parent)
                    if home is not None:
                        changed |= block_closure(home)
            # 3. Materialised phis: keep the branches that pick their arms.
            for iid in list(materialized):
                inst = by_id[iid]
                if isinstance(inst, Phi):
                    for _, pred in inst.incoming():
                        if not self.loop.contains_block(pred):
                            continue
                        term = pred.terminator
                        if term is not None:
                            if isinstance(term, CondBranch) and id(term) not in needed_branches:
                                needed_branches.add(id(term))
                                changed = True
                            changed |= branch_closure(term)

        consumed: list[Instruction] = []
        seen: set[int] = set()
        for block in self.loop.blocks:
            for inst in block.instructions:
                needs = id(inst) in materialized or id(inst) in needed_branches
                if not needs:
                    continue
                for op in inst.operands:
                    if (
                        isinstance(op, Instruction)
                        and id(op) in self._loop_inst_ids
                        and id(op) not in materialized
                        and id(op) not in seen
                    ):
                        seen.add(id(op))
                        consumed.append(op)
        return BodyPlan(materialized, needed_branches, consumed)

    # ---------------------------------------------------------------- channels

    def _plan_channels(
        self, plans: list[StagePlan], channels: ChannelPlan
    ) -> list[ChannelBinding]:
        bindings: list[ChannelBinding] = []
        for plan in plans:
            consumer = plan.stage
            consumed_all: list[Instruction] = []
            seen: set[int] = set()
            for body in plan.bodies:
                for value in body.consumed:
                    if id(value) not in seen:
                        seen.add(id(value))
                        consumed_all.append(value)
            body2_ids = (
                {id(v) for v in plan.bodies[1].consumed}
                if len(plan.bodies) > 1
                else set()
            )
            for value in consumed_all:
                producer_index = self._owner_stage.get(id(value))
                if producer_index is None:
                    raise TransformError(
                        f"consumed value {value.short_name()} has no owner stage"
                    )
                producer = self.spec.stages[producer_index]
                if producer_index >= consumer.index:
                    raise TransformError(
                        f"backward communication: stage {producer_index} -> "
                        f"{consumer.index} for {value.short_name()}"
                    )
                broadcast = consumer.is_parallel and id(value) in body2_ids
                placement = self._placement_block(value, plan, plans[producer_index])
                n_channels = max(producer.n_workers, consumer.n_workers)
                channel = channels.new_channel(
                    name=value.name or f"v{len(bindings)}",
                    elem_type=value.type,
                    producer_stage=producer_index,
                    consumer_stage=consumer.index,
                    n_channels=n_channels,
                    broadcast=broadcast,
                )
                bindings.append(
                    ChannelBinding(
                        value=value,
                        channel=channel,
                        producer_stage=producer_index,
                        consumer_stage=consumer.index,
                        broadcast=broadcast,
                        placement=placement,
                    )
                )
        return bindings

    def _placement_block(
        self,
        value: Instruction,
        consumer_plan: StagePlan,
        producer_plan: StagePlan,
    ) -> BasicBlock:
        """Choose where the produce/consume pair for ``value`` lives.

        Candidates are the blocks on the dominator chain from the def's
        block down to the nearest common dominator of the consumer's uses;
        we pick the block at the shallowest loop depth (closest to the
        uses at that depth), so a value defined inside an inner loop but
        consumed only after it (an inner reduction) is communicated once
        per target-loop iteration instead of once per inner iteration.
        Falls back to the def site when the hoisted block's control
        conditions are not available to the producer.
        """
        def_block = value.parent
        assert def_block is not None
        uses: list[Instruction] = []
        by_id = {id(i): i for i in self.loop.instructions()}
        wanted = set()
        for body in consumer_plan.bodies:
            wanted |= body.materialized | body.needed_branches
        for iid in wanted:
            inst = by_id.get(iid)
            if inst is not None and any(op is value for op in inst.operands):
                uses.append(inst)
        if not uses:
            return def_block
        ncd: BasicBlock | None = None
        for use in uses:
            block = use.parent
            assert block is not None
            ncd = block if ncd is None else self._nearest_common_dominator(ncd, block)
        assert ncd is not None
        # Dominator chain from ncd up to def_block; pick the shallowest
        # loop depth, preferring the block closest to the uses.
        chain: list[BasicBlock] = []
        cursor: BasicBlock | None = ncd
        while cursor is not None:
            chain.append(cursor)
            if cursor is def_block:
                break
            cursor = self._domtree.idom(cursor)
        if not chain or chain[-1] is not def_block:
            return def_block
        best = min(chain, key=lambda b: (self._loop_depth(b), chain.index(b)))
        if best is def_block:
            return def_block
        # Producer legality: every branch condition controlling `best`
        # must already be computable/consumable by the producer.
        if not self._producer_can_place(best, producer_plan):
            return def_block
        return best

    def _nearest_common_dominator(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        ancestors: set[int] = set()
        cursor: BasicBlock | None = a
        while cursor is not None:
            ancestors.add(id(cursor))
            cursor = self._domtree.idom(cursor)
        cursor = b
        while cursor is not None:
            if id(cursor) in ancestors:
                return cursor
            cursor = self._domtree.idom(cursor)
        return self.loop.header

    def _loop_depth(self, block: BasicBlock) -> int:
        loop = self._loopinfo.loop_of_block(block)
        depth = 0
        while loop is not None:
            depth += 1
            loop = loop.parent
        return depth

    def _producer_can_place(self, block: BasicBlock, producer_plan: StagePlan) -> bool:
        """All branches steering ``block`` are already in the producer's
        skeleton (its needed-branch closure) or trivially addable with
        conditions the producer materialises/consumes."""
        body = producer_plan.full
        known = body.materialized | {id(v) for v in body.consumed}
        work = [block]
        seen: set[int] = set()
        while work:
            current = work.pop()
            term = current.terminator
            if term is None:
                continue
            for src in self._ctrl_sources.get(id(term), []):
                if not isinstance(src, CondBranch) or id(src) in seen:
                    continue
                seen.add(id(src))
                if id(src) in body.needed_branches:
                    continue
                cond = src.cond
                if isinstance(cond, Instruction) and id(cond) in self._loop_inst_ids:
                    if id(cond) not in known:
                        return False
                body.needed_branches.add(id(src))
                assert src.parent is not None
                work.append(src.parent)
        return True

    def _liveout_owners(
        self, liveouts: list[Instruction], plans: list[StagePlan]
    ) -> dict[int, int]:
        """Pick, per live-out, the stage whose task latches the register.

        Owned values are latched by their owning stage.  Replicated values
        are computed identically by every stage materialising them, so any
        one may latch; we prefer a sequential stage (deterministic single
        writer) and fall back to the parallel stage (all workers store the
        same final value).
        """
        owners: dict[int, int] = {}
        for value in liveouts:
            stage_index = self._owner_stage.get(id(value))
            if stage_index is not None:
                stage = self.spec.stages[stage_index]
                if stage.is_parallel and id(value) not in self._replicated_ids:
                    raise TransformError(
                        f"live-out {value.short_name()} owned by the parallel "
                        f"stage is not supported (no worker owns the final "
                        f"iteration statically)"
                    )
                owners[id(value)] = stage_index
                continue
            materializing = [
                plan for plan in plans if id(value) in plan.full.materialized
            ]
            sequential = [p for p in materializing if not p.stage.is_parallel]
            chosen = (sequential or materializing)
            if not chosen:
                raise TransformError(
                    f"live-out {value.short_name()} is not materialised by "
                    f"any stage"
                )
            owners[id(value)] = chosen[0].stage.index
        return owners

    # ------------------------------------------------------------------- tasks

    def _generate_task(
        self,
        plan: StagePlan,
        bindings: list[ChannelBinding],
        liveins: list[Value],
        liveouts: list[Instruction],
        liveout_ids: dict[int, int],
        liveout_owner: dict[int, int],
    ) -> Function:
        stage = plan.stage
        name = f"{self.parent.name}_loop{self.loop_id}_stage{stage.index}"
        param_types = [v.type for v in liveins]
        param_names = [f"in_{v.name or i}" for i, v in enumerate(liveins)]
        if stage.is_parallel:
            param_types.append(I32)
            param_names.append("worker_id")
        task = self.module.new_function(
            name, FunctionType(VOID, param_types), param_names
        )
        task.task_info = TaskInfo(
            loop_id=self.loop_id,
            stage_index=stage.index,
            kind=stage.kind,
            n_workers=stage.n_workers,
        )
        worker_arg = task.args[-1] if stage.is_parallel else None

        produce_map = self._produces_for_stage(stage.index, bindings)
        consume_map = {
            id(b.value): b for b in bindings if b.consumer_stage == stage.index
        }

        builder = _TaskBuilder(
            transformer=self,
            task=task,
            plan=plan,
            liveins=liveins,
            worker_arg=worker_arg,
            produce_map=produce_map,
            consume_map=consume_map,
            liveouts=[
                v for v in liveouts if liveout_owner[id(v)] == stage.index
            ],
            liveout_ids=liveout_ids,
        )
        builder.build()
        remove_unreachable_blocks(task)
        verify_function(task)
        return task

    def _produces_for_stage(
        self, stage_index: int, bindings: list[ChannelBinding]
    ) -> dict[int, list[ChannelBinding]]:
        result: dict[int, list[ChannelBinding]] = {}
        for binding in bindings:
            if binding.producer_stage == stage_index:
                result.setdefault(id(binding.value), []).append(binding)
        return result

    # ------------------------------------------------------------------ parent

    def _rewrite_parent(
        self,
        tasks: list[Function],
        liveins: list[Value],
        liveouts: list[Instruction],
        liveout_ids: dict[int, int],
    ) -> None:
        loop = self.loop
        parent = self.parent
        exit_targets = loop.exit_blocks()
        if len(exit_targets) != 1:
            raise TransformError(
                f"parent rewrite needs a single loop exit target, found "
                f"{len(exit_targets)}"
            )
        exit_target = exit_targets[0]

        invoke = parent.new_block("cgpa.invoke")
        # Retarget entry edges into the loop header.
        for pred in list(loop.header.predecessors()):
            if loop.contains_block(pred):
                continue
            pred.terminator.replace_operand(loop.header, invoke)  # type: ignore[union-attr]

        for stage, task in zip(self.spec.stages, tasks):
            if stage.is_parallel:
                for worker in range(stage.n_workers):
                    invoke.append(
                        ParallelFork(self.loop_id, task, list(liveins), worker)
                    )
            else:
                invoke.append(ParallelFork(self.loop_id, task, list(liveins), None))
        invoke.append(ParallelJoin(self.loop_id))

        retrieves: dict[int, Instruction] = {}
        for value in liveouts:
            r = RetrieveLiveout(liveout_ids[id(value)], value.type, value.name)
            invoke.append(r)
            retrieves[id(value)] = r

        # Exit-block phis: loop arms collapse into one arm from the invoke
        # block (values arrive via live-out registers).
        exiting = {id(b) for b in loop.exiting_blocks()}
        for phi in exit_target.phis():
            arm_values: list[Value] = []
            for value, pred in list(phi.incoming()):
                if id(pred) in exiting:
                    arm_values.append(value)
                    phi.remove_incoming(pred)
            if not arm_values:
                continue
            distinct = {id(v) for v in arm_values}
            if len(distinct) != 1:
                raise TransformError(
                    "exit phi merges different values from different exits"
                )
            original = arm_values[0]
            replacement = retrieves.get(id(original), original)
            if isinstance(original, Instruction) and loop.contains(original):
                if id(original) not in retrieves:
                    raise TransformError(
                        f"exit phi uses non-live-out loop value "
                        f"{original.short_name()}"
                    )
            phi.add_incoming(replacement, invoke)
        invoke.append(Jump(exit_target))

        # Replace remaining outside uses of live-outs.
        loop_ids = self._loop_inst_ids
        for value in liveouts:
            replacement = retrieves[id(value)]
            for user in value.users:
                if id(user) in loop_ids or user.parent is invoke:
                    continue
                user.replace_operand(value, replacement)

        # Delete the original loop body from the parent.
        loop_block_ids = {id(b) for b in loop.blocks}
        body = [inst for block in loop.blocks for inst in block.instructions]
        for inst in body:
            if any(
                u.parent is not None and id(u.parent) not in loop_block_ids
                for u in inst.users
            ):
                raise TransformError(
                    f"deleted loop value {inst.short_name()} still used "
                    f"outside the loop"
                )
        erase_all(body)
        for block in loop.blocks:
            parent.remove_block(block)
        remove_unreachable_blocks(parent)
        verify_function(parent)


class _TaskBuilder:
    """Builds one task function from a stage plan (one or two loop bodies)."""

    def __init__(
        self,
        transformer: _Transformer,
        task: Function,
        plan: StagePlan,
        liveins: list[Value],
        worker_arg: Argument | None,
        produce_map: dict[int, list[ChannelBinding]],
        consume_map: dict[int, ChannelBinding],
        liveouts: list[Instruction],
        liveout_ids: dict[int, int],
    ) -> None:
        self.t = transformer
        self.task = task
        self.plan = plan
        self.liveins = liveins
        self.worker_arg = worker_arg
        self.produce_map = produce_map
        self.consume_map = consume_map
        self.liveouts = liveouts
        self.liveout_ids = liveout_ids
        self.loop = transformer.loop
        self.dual = len(plan.bodies) > 1
        # Shared across bodies.
        self.livein_map: dict[int, Value] = {}
        self.dispatch: BasicBlock | None = None
        self.exit_block: BasicBlock | None = None
        self.header_phi_clones: dict[int, Phi] = {}
        self.it_phi: Phi | None = None
        self.it_next: Instruction | None = None

    # -- top-level ---------------------------------------------------------------

    def build(self) -> None:
        task = self.task
        loop = self.loop
        for livein, arg in zip(self.liveins, task.args):
            self.livein_map[id(livein)] = arg

        entry = task.new_block("entry")
        self.dispatch = task.new_block("dispatch")
        self.exit_block = task.new_block("task.exit")
        entry.append(Jump(self.dispatch))

        # Merged header phis: any original header phi materialised by any
        # body becomes a single phi in the dispatch block.
        materialized_union: set[int] = set()
        for body in self.plan.bodies:
            materialized_union |= body.materialized
        for phi in loop.header_phis():
            if id(phi) in materialized_union:
                clone = Phi(phi.type, phi.name)
                self.dispatch.append(clone)
                self.header_phi_clones[id(phi)] = clone

        # Iteration counter (the "red" compiler-generated code of Fig 1(e)).
        self.it_phi = Phi(I32, "it")
        self.dispatch.append(self.it_phi)
        self.it_next = BinaryOp("add", self.it_phi, Constant(I32, 1), "it.next")
        self.dispatch.append(self.it_next)

        bodies = [
            _BodyClone(self, body, index) for index, body in enumerate(self.plan.bodies)
        ]
        for clone in bodies:
            clone.create_blocks()

        if self.dual:
            n = self.plan.stage.n_workers
            if n & (n - 1) == 0:
                # Power-of-two worker count: the paper's `it & MASK` form.
                mod = BinaryOp("and", self.it_phi, Constant(I32, n - 1), "it.mod")
            else:
                mod = BinaryOp("srem", self.it_phi, Constant(I32, n), "it.mod")
            self.dispatch.append(mod)
            mine = ICmp("eq", mod, self.worker_arg, "mine")
            self.dispatch.append(mine)
            self.dispatch.append(
                CondBranch(mine, bodies[0].header_rest, bodies[1].header_rest)
            )
        else:
            self.dispatch.append(Jump(bodies[0].header_rest))

        for clone in bodies:
            clone.fill_blocks()

        # Wire phi arms: initial values from entry, latch values per body.
        preheader_values = self._preheader_values()
        for phi_id, clone_phi in self.header_phi_clones.items():
            init = preheader_values[phi_id]
            clone_phi.add_incoming(self._map_external(init), entry)
        self.it_phi.add_incoming(Constant(I32, 0), entry)
        for body_clone in bodies:
            for orig_latch in self.loop.latches():
                latch_block = body_clone.block_map.get(id(orig_latch))
                if latch_block is None:
                    continue
                for phi_id, clone_phi in self.header_phi_clones.items():
                    orig_phi = body_clone.by_id[phi_id]
                    orig_value = orig_phi.incoming_for(orig_latch)
                    clone_phi.add_incoming(
                        body_clone.map_value(orig_value), latch_block
                    )
                self.it_phi.add_incoming(self.it_next, latch_block)

        # Exit block: latch live-outs, return.
        for value in self.liveouts:
            mapped = bodies[0].value_map.get(id(value))
            if mapped is None:
                raise TransformError(
                    f"live-out {value.short_name()} not materialised in its "
                    f"owning stage"
                )
            self.exit_block.append(StoreLiveout(self.liveout_ids[id(value)], mapped))
        self.exit_block.append(Ret())

    def _preheader_values(self) -> dict[int, Value]:
        result: dict[int, Value] = {}
        for phi in self.loop.header_phis():
            if id(phi) not in self.header_phi_clones:
                continue
            for value, pred in phi.incoming():
                if not self.loop.contains_block(pred):
                    result[id(phi)] = value
        missing = set(self.header_phi_clones) - set(result)
        if missing:
            raise TransformError("header phi without a preheader arm")
        return result

    def _map_external(self, value: Value) -> Value:
        """Map a loop-external value (live-in / constant / global)."""
        if isinstance(value, (Constant, GlobalVariable)):
            return value
        mapped = self.livein_map.get(id(value))
        if mapped is None:
            raise TransformError(
                f"external value {value.short_name()} is not a live-in"
            )
        return mapped


class _BodyClone:
    """One control-equivalent clone of the loop for a body plan."""

    def __init__(self, builder: _TaskBuilder, plan: BodyPlan, index: int) -> None:
        self.b = builder
        self.plan = plan
        self.index = index
        self.loop = builder.loop
        self.by_id = {id(i): i for i in self.loop.instructions()}
        self.block_map: dict[int, BasicBlock] = {}
        self.value_map: dict[int, Value] = {}
        self.header_rest: BasicBlock | None = None
        self._suffix = f".b{index}" if builder.dual else ""
        self._nonphi_phis: list[tuple[Phi, Phi]] = []  # (orig, clone)
        # Placement maps: block id -> values consumed / produced there.
        self._consume_at: dict[int, list[Instruction]] = {}
        for v in plan.consumed:
            binding = builder.consume_map[id(v)]
            home = binding.placement or v.parent
            self._consume_at.setdefault(id(home), []).append(v)
        # Produces placed away from the def site (hoisted); def-site
        # produces are emitted right after the cloned definition.
        self._produce_at: dict[int, list] = {}
        self._defsite_produce: dict[int, list] = {}
        for vid, bindings in builder.produce_map.items():
            for binding in bindings:
                home = binding.placement or binding.value.parent
                if home is binding.value.parent:
                    self._defsite_produce.setdefault(vid, []).append(binding)
                else:
                    self._produce_at.setdefault(id(home), []).append(binding)

    # -- structure ------------------------------------------------------------

    def create_blocks(self) -> None:
        task = self.b.task
        for block in self.loop.blocks:
            clone = task.new_block(block.short_name() + self._suffix)
            self.block_map[id(block)] = clone
        self.header_rest = self.block_map[id(self.loop.header)]
        # Header phis live in the shared dispatch block.
        for phi_id, clone_phi in self.b.header_phi_clones.items():
            self.value_map[phi_id] = clone_phi

    # -- value mapping -----------------------------------------------------------

    def map_value(self, value: Value) -> Value:
        if isinstance(value, (Constant, GlobalVariable)):
            return value
        if isinstance(value, Instruction) and id(value) in self.value_map:
            return self.value_map[id(value)]
        if isinstance(value, Instruction) and id(value) in self.b.t._loop_inst_ids:
            raise TransformError(
                f"loop value {value.short_name()} used but neither "
                f"materialised nor consumed in stage body {self.index}"
            )
        return self.b._map_external(value)

    def _target(self, block: BasicBlock) -> BasicBlock:
        """Branch-target mapping: back edges go to dispatch, exits to the
        task's exit block."""
        if block is self.loop.header:
            return self.b.dispatch  # type: ignore[return-value]
        if not self.loop.contains_block(block):
            return self.b.exit_block  # type: ignore[return-value]
        return self.block_map[id(block)]

    # -- body generation ------------------------------------------------------------

    def fill_blocks(self) -> None:
        for block in self.b.t.loop_rpo:
            self._fill_block(block)
        self._fix_local_phis()

    def _fill_block(self, block: BasicBlock) -> None:
        clone = self.block_map[id(block)]
        is_header = block is self.loop.header
        consumed = self._consumed_ids()
        # Consumes whose placement is this block go first (after phis).
        for value in self._consume_at.get(id(block), []):
            if id(value) in consumed:
                self._emit_consume(value, clone)
        # Hoisted produces assigned to this block (values defined earlier).
        for binding in self._produce_at.get(id(block), []):
            if id(binding.value) in self.plan.materialized:
                self._emit_binding_produce(binding, clone)
        for inst in block.instructions:
            if isinstance(inst, Phi):
                if id(inst) in consumed:
                    continue  # consume already placed above
                if is_header:
                    # Materialised header phis live in the shared dispatch
                    # block; def-site produces go at the top of the header
                    # clone, i.e. once per iteration.
                    if id(inst) in self.plan.materialized:
                        self._emit_produces(inst, self.value_map[id(inst)], clone)
                    continue
                if id(inst) in self.plan.materialized:
                    phi_clone = Phi(inst.type, inst.name)
                    clone.insert(clone.first_non_phi_index(), phi_clone)
                    self.value_map[id(inst)] = phi_clone
                    self._nonphi_phis.append((inst, phi_clone))
                    self._emit_produces(inst, phi_clone, clone)
                continue
            if inst.is_terminator:
                self._clone_terminator(inst, clone)
                continue
            if id(inst) in consumed:
                continue  # consume already placed at its placement block
            if id(inst) not in self.plan.materialized:
                continue
            cloned = inst.clone({op: self.map_value(op) for op in inst.operands})
            clone.append(cloned)
            self.value_map[id(inst)] = cloned
            self._emit_produces(inst, cloned, clone)

    def _consumed_ids(self) -> set[int]:
        return {id(v) for v in self.plan.consumed}

    def _emit_consume(self, inst: Instruction, clone: BasicBlock) -> None:
        if id(inst) in self.value_map:
            return
        binding = self.b.consume_map.get(id(inst))
        if binding is None:
            raise TransformError(
                f"no channel for consumed value {inst.short_name()}"
            )
        selector = self._consume_selector(binding)
        consume = Consume(binding.channel, inst.type, selector, inst.name)
        clone.append(consume)
        self.value_map[id(inst)] = consume

    def _consume_selector(self, binding: ChannelBinding) -> Value | None:
        consumer = self.b.plan.stage
        producer = self.b.t.spec.stages[binding.producer_stage]
        if consumer.is_parallel:
            return None  # pop own channel (worker id)
        if producer.is_parallel:
            return self.b.it_phi  # round-robin across producer workers
        return None

    def _emit_produces(
        self, inst: Instruction, cloned: Value, clone: BasicBlock
    ) -> None:
        for binding in self._defsite_produce.get(id(inst), []):
            if binding.broadcast:
                clone.append(ProduceBroadcast(binding.channel, cloned))
            else:
                clone.append(
                    Produce(binding.channel, self._produce_selector(binding), cloned)
                )

    def _emit_binding_produce(self, binding: ChannelBinding, clone: BasicBlock) -> None:
        cloned = self.value_map.get(id(binding.value))
        if cloned is None:
            raise TransformError(
                f"hoisted produce of {binding.value.short_name()} before its "
                f"definition was cloned"
            )
        if binding.broadcast:
            clone.append(ProduceBroadcast(binding.channel, cloned))
        else:
            clone.append(
                Produce(binding.channel, self._produce_selector(binding), cloned)
            )

    def _produce_selector(self, binding: ChannelBinding) -> Value:
        producer = self.b.plan.stage
        consumer = self.b.t.spec.stages[binding.consumer_stage]
        if producer.is_parallel:
            return self.b.worker_arg  # type: ignore[return-value]
        if consumer.is_parallel:
            return self.b.it_phi  # type: ignore[return-value]
        return Constant(I32, 0)

    def _clone_terminator(self, inst: Instruction, clone: BasicBlock) -> None:
        if isinstance(inst, Jump):
            clone.append(Jump(self._target(inst.target)))
            return
        if isinstance(inst, CondBranch):
            if id(inst) in self.plan.needed_branches:
                cond = self.map_value(inst.cond)
                clone.append(
                    CondBranch(cond, self._target(inst.if_true), self._target(inst.if_false))
                )
            else:
                # Irrelevant control region: short-circuit to the branch's
                # immediate post-dominator.
                ipdom = self.b.t._pdt.idom(inst.parent)
                if ipdom is None or ipdom is self.b.t._pdt.virtual_exit:
                    raise TransformError("cannot prune branch without post-dominator")
                clone.append(Jump(self._target(ipdom)))
            return
        raise TransformError(f"unsupported loop terminator {inst.opcode}")

    def _fix_local_phis(self) -> None:
        for orig, phi_clone in self._nonphi_phis:
            for value, pred in orig.incoming():
                pred_clone = self.block_map.get(id(pred))
                if pred_clone is None:
                    continue
                phi_clone.add_incoming(self.map_value(value), pred_clone)
