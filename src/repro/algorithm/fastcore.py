"""Raw-speed replay/ordering core: :class:`FastReplicaCore`.

A drop-in :class:`~repro.algorithm.replica.ReplicaCore` subclass that keeps
the *authoritative* state exactly as the base class does (``pending`` /
``rcvd`` / ``done[i]`` / ``stable[i]`` / ``labels`` — so ``snapshot()``, the
invariant checker and every harness keep working unchanged) but re-implements
the profiled hot paths with interned/array-backed mirrors:

* **Label interning** — a finite label ``(rank, replica)`` packs into the
  single int ``rank * len(replicas) + replica_index`` (replica indices
  assigned in sorted-id order), which is order-isomorphic to
  :func:`~repro.algorithm.labels.label_sort_key` (``INFINITY`` maps to
  ``float("inf")``, after every finite key).  ``done_order`` re-sorts on int
  keys instead of ``(int, int, str)`` tuples.
* **Operation-id slots + bitset knowledge mirrors** — each tracked id gets a
  dense slot; ``done[i]`` / ``stable[i]`` membership is mirrored into one
  Python big-int bitset per replica.  ``is_stable_everywhere`` is a bit test
  and ``compactable_prefix`` walks the order against the AND of the stable
  bitsets, replacing per-element ``all(x in stable[i] ...)`` set probes.
  Compaction folds trigger a dense re-index (:meth:`_rebuild_fast_state`),
  so slot space stays bounded by the unstable suffix.
* **Set-difference gossip merges** — ``receive_gossip`` merges via C-speed
  set differences, tests checkpoint coverage only on elements not already
  tracked (sound because compaction removes folded records from *every*
  set: tracked implies not covered), and promotes stability incrementally —
  only operations newly added to a peer's done set this merge can newly
  become done-everywhere, because ``done[self]`` always contains every other
  ``done[i]`` (gossip unions the incoming done set into both) so local
  ``do_it`` can never change the intersection.
* **Batched do/undone mirrors** — ``_undone`` (``rcvd - done_here``) and the
  done-id set are maintained incrementally so a ``do_all_ready`` sweep scans
  only candidates instead of rebuilding set differences and id sets per
  pass; ``repr``-based scheduling sort keys are cached per id.
* **O(1) fresh labels** — every label entering ``labels`` passes through
  ``fresh``/``observed`` (gossip merges note the maximum incoming rank), so
  the generator's next rank already exceeds every tracked label and
  ``do_it`` skips the existing-label scan entirely
  (:meth:`~repro.algorithm.labels.LabelGenerator.fresh_monotone`).  The
  first explicitly supplied label (harness-driven ``do_it(x, label)``)
  permanently falls back to the base path, which re-validates against the
  done set.
* **Epoch-tagged replay cache** — ``done_order`` bumps an order epoch on
  every full re-sort; while the epoch is unchanged the cached replay order
  is by construction a prefix of the current order (appends and consistent
  head-trims only), so ``_compute_value_incremental`` skips the per-response
  key rebuild and prefix comparison and just applies the new tail.

Equivalence argument: every override either computes the same value through
a cheaper representation (int sort keys, bit tests, set differences) or
skips work that is provably a no-op under a maintained invariant (fresh
label scan, coverage tests on tracked elements, full stability
intersection, replay prefix comparison).  The mirrors are rebuilt from the
authoritative sets whenever those are wholesale-replaced (compaction fold,
checkpoint adoption, volatile crash).  Lockstep seeded twins against
:class:`ReplicaCore` (responses, witness order, state digests) and the
conformance corpus enforce the argument in CI.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.algorithm.labels import Label, label_sort_key
from repro.algorithm.messages import GossipMessage, RequestMessage
from repro.algorithm.replica import ReplicaCore
from repro.common import OperationId, SpecificationError

#: Sort key of "no label yet": after every finite packed label key.
_INFINITE_KEY = float("inf")


def _iter_interval_diff(theirs, mine):
    """Yield the seqnos covered by *theirs* but not by *mine* (both sorted
    disjoint ``(lo, hi)`` interval sequences, as stored by ``OpIdSummary``)."""
    j = 0
    n = len(mine)
    for lo, hi in theirs:
        seq = lo
        while seq <= hi:
            while j < n and mine[j][1] < seq:
                j += 1
            if j < n and mine[j][0] <= seq:
                seq = mine[j][1] + 1
                continue
            end = hi if j >= n else min(hi, mine[j][0] - 1)
            for value in range(seq, end + 1):
                yield value
            seq = end + 1


class FastReplicaCore(ReplicaCore):
    """The raw-speed core.  Externally indistinguishable from
    :class:`ReplicaCore` (same responses, witness order, digests, message
    payloads); only the stats counters that count *work* (none do — the
    counters track algorithmic events, which are identical) and wall-clock
    time differ."""

    def __init__(self, replica_id, replica_ids, data_type) -> None:
        super().__init__(replica_id, replica_ids, data_type)
        ordered = sorted(self.replica_ids)
        #: Replica-id interning for packed label keys: indices follow the
        #: sorted id order so the packed int is order-isomorphic to the
        #: ``(rank, replica)`` lexicographic order.
        self._replica_index: Dict[str, int] = {r: i for i, r in enumerate(ordered)}
        self._rank_stride = len(ordered)
        self._my_index = self._replica_index[self.replica_id]
        #: Packed label keys parallel to ``_order_cache`` (valid while the
        #: order is clean) — the sorted backbone for bisect insertion.
        self._order_keys: List[int] = []
        #: Operation-id interning: id -> dense slot (bit position).
        self._slots: Dict[Any, int] = {}
        self._slot_count = 0
        #: Big-int bitset mirrors of ``done[i]`` / ``stable[i]``.
        self._done_bits: Dict[str, int] = {i: 0 for i in self.replica_ids}
        self._stable_bits: Dict[str, int] = {i: 0 for i in self.replica_ids}
        #: Mirrors of done-here (id -> descriptor) and of ``rcvd - done_here``.
        self._done_index: Dict[Any, Any] = {}
        self._undone: Set[Any] = set()
        #: Cached ``repr(id)`` scheduling sort keys.
        self._repr_cache: Dict[Any, str] = {}
        #: Bumped on every full ``done_order`` re-sort; while unchanged, the
        #: replay cache's order is a prefix of the current order.
        self._order_epoch = 0
        self._replay_epoch = -1
        #: Set once a label is supplied explicitly; disables the O(1)
        #: fresh-label path (the monotonicity invariant no longer holds).
        self._explicit_labels = False
        #: Frontier of the largest checkpoint coverage fully absorbed (every
        #: covered operation marked done+stable everywhere, or folded).  A
        #: nested coverage re-attached to later gossip is a no-op.
        self._absorbed_frontier: Optional[Label] = None

    # ------------------------------------------------------------- interning

    def _slot_for(self, op_id) -> int:
        slot = self._slots.get(op_id)
        if slot is None:
            slot = self._slot_count
            self._slots[op_id] = slot
            self._slot_count = slot + 1
        return slot

    def _bits_for(self, ops) -> int:
        """OR of the slot bits of *ops* (assigning fresh slots as needed) —
        one call per merged set instead of one ``_slot_for`` call per
        element."""
        slots = self._slots
        get = slots.get
        count = self._slot_count
        bits = 0
        for x in ops:
            op_id = x.id
            slot = get(op_id)
            if slot is None:
                slot = count
                slots[op_id] = slot
                count += 1
            bits |= 1 << slot
        self._slot_count = count
        return bits

    def _label_key(self, label) -> Any:
        """Packed int sort key, order-isomorphic to ``label_sort_key``."""
        if label is None or not isinstance(label, Label):
            return _INFINITE_KEY
        return label.rank * self._rank_stride + self._replica_index[label.replica]

    def _sort_repr(self, op_id) -> str:
        key = self._repr_cache.get(op_id)
        if key is None:
            key = repr(op_id)
            self._repr_cache[op_id] = key
        return key

    def _rebuild_fast_state(self) -> None:
        """Re-derive every mirror from the authoritative sets (after a
        compaction fold, a wholesale checkpoint adoption or a volatile
        crash).  Re-indexes the id slots densely so the bitsets stay sized
        by the unstable suffix, not the history."""
        universe = set(self.rcvd)
        for ops in self.done.values():
            universe |= ops
        self._slots = {}
        self._slot_count = 0
        slot_for = self._slot_for
        for x in universe:
            slot_for(x.id)
        slots = self._slots
        for i in self.replica_ids:
            bits = 0
            for x in self.done[i]:
                bits |= 1 << slots[x.id]
            self._done_bits[i] = bits
            bits = 0
            for x in self.stable[i]:
                bits |= 1 << slots[x.id]
            self._stable_bits[i] = bits
        done_here = self.done[self.replica_id]
        self._done_index = {x.id: x for x in done_here}
        self._undone = self.rcvd - done_here
        if self._repr_cache:
            self._repr_cache = {
                op_id: key for op_id, key in self._repr_cache.items() if op_id in slots
            }

    # ------------------------------------------------------------------ order

    def done_order(self) -> List:
        if self._order_dirty:
            labels = self.labels
            stride = self._rank_stride
            index = self._replica_index
            pairs: List[Tuple[Any, Any]] = []
            for x in self.done[self.replica_id]:
                label = labels.get(x.id)
                key = (
                    _INFINITE_KEY
                    if label is None
                    else label.rank * stride + index[label.replica]
                )
                pairs.append((key, x))
            pairs.sort(key=lambda pair: pair[0])
            self._order_cache = [x for _key, x in pairs]
            self._order_keys = [key for key, _x in pairs]
            self._order_dirty = False
            self._order_epoch += 1
            self.stats.done_order_sorts += 1
        return self._order_cache

    # ----------------------------------------------------------- request path

    def receive_request(self, message: RequestMessage) -> None:
        super().receive_request(message)
        operation = message.operation
        if operation in self.rcvd and operation not in self.done[self.replica_id]:
            self._undone.add(operation)

    def can_do(self, operation) -> bool:
        # Tracked implies not compacted, so membership in ``rcvd`` subsumes
        # the base class's coverage pre-check; a compacted operation is
        # never in ``rcvd`` and fails here exactly as it does there.
        if operation not in self.rcvd or operation in self.done[self.replica_id]:
            return False
        prev = operation.prev
        if not prev:
            return True
        done_ids = self._done_index
        checkpoint = self.checkpoint
        if checkpoint.count:
            covered = checkpoint.ids
            return all(p in done_ids or p in covered for p in prev)
        return all(p in done_ids for p in prev)

    def doable_operations(self) -> List:
        ready = [x for x in self._undone if self.can_do(x)]
        ready.sort(key=lambda x: self._sort_repr(x.id))
        return ready

    def do_it(self, operation, label: Optional[Label] = None) -> Label:
        if label is not None or self._explicit_labels:
            if label is not None:
                self._explicit_labels = True
            assigned = super().do_it(operation, label)
            self._register_done_here(operation)
            return assigned
        if not self.can_do(operation):
            raise SpecificationError(
                f"do_it precondition fails for {operation.id} at replica {self.replica_id}"
            )
        # Every tracked label passed through fresh()/observed(), so the
        # generator's next rank already exceeds all of them: the base
        # class's existing-label scan would find nothing to skip past.
        assigned = self._label_generator.fresh_monotone()
        self.done[self.replica_id].add(operation)
        self.labels[operation.id] = assigned
        self._note_label_change(operation.id)
        self._stable_storage[operation.id] = assigned
        if not self._order_dirty:
            # fresh_monotone's rank exceeds every tracked rank, so the new
            # packed key is strictly greatest: appending keeps both sorted.
            self._order_cache.append(operation)
            self._order_keys.append(assigned.rank * self._rank_stride + self._my_index)
        self._state_version += 1
        self.stats.do_it_count += 1
        self._register_done_here(operation)
        return assigned

    def _register_done_here(self, operation) -> None:
        self._done_index[operation.id] = operation
        self._undone.discard(operation)
        self._done_bits[self.replica_id] |= 1 << self._slot_for(operation.id)

    def is_compacted(self, op_id) -> bool:
        # Tracked implies not compacted, so a done-here operation (the common
        # case on the response path) skips the interval bisect entirely.
        if op_id in self._done_index:
            return False
        return self.checkpoint.covers(op_id)

    # ---------------------------------------------------------- response path

    def ready_responses(self) -> List:
        ready = [x for x in self.pending if self.response_ready(x)]
        ready.sort(key=lambda x: self._sort_repr(x.id))
        return ready

    def response_ready(self, operation) -> bool:
        # The common case — a tracked, done-here operation outside catch-up —
        # resolves on the done index and the stable bitsets alone.  Tracked
        # implies not compacted, so the base class's coverage branch cannot
        # apply; everything else (compacted values, catch-up gating, the
        # not-done cases) delegates so the semantics stay in one place.
        if operation not in self.pending:
            return False
        if operation.id in self._done_index:
            if self.catching_up():
                return super().response_ready(operation)
            if operation.strict and not self.is_stable_everywhere(operation):
                return False
            return True
        return super().response_ready(operation)

    def is_stable_everywhere(self, operation) -> bool:
        slot = self._slots.get(operation.id)
        if slot is None:
            # Never tracked since the last re-index: stable-everywhere iff
            # compacted (the base class's first branch).
            return self.checkpoint.covers(operation.id)
        mask = 1 << slot
        for bits in self._stable_bits.values():
            if not bits & mask:
                return False
        return True

    def _compute_value_incremental(self, operation) -> Any:
        order = self.done_order()  # may re-sort and bump the order epoch
        if self._replay_epoch != self._order_epoch:
            # The order may have been re-sorted since the cache was built:
            # run the base prefix-comparison path once, then re-enter the
            # epoch-tagged fast path.
            value = super()._compute_value_incremental(operation)
            self._replay_epoch = self._order_epoch
            return value
        # Same epoch: the cached order is a prefix of the current one (only
        # appends and consistent head-trims happened), so apply the tail.
        prefix = len(self._replay_order)
        values = self._replay_values
        if prefix < len(order):
            apply = self.data_type.apply
            states = self._replay_states
            replay_order = self._replay_order
            # The order is clean here (a re-sort would have bumped the epoch
            # into the fallback above), so the packed-key backbone is parallel
            # to it: reuse those keys instead of recomputing label sort keys.
            # The packed ints are order-isomorphic to the tuples the base
            # path stores; its prefix comparison treats a format mismatch as
            # a changed key, which only makes a post-re-sort replay start
            # earlier — never reuse an invalid checkpoint.
            keys = self._order_keys
            state = states[prefix - 1] if prefix else self.checkpoint.base_state
            for i in range(prefix, len(order)):
                x = order[i]
                state, reported = apply(state, x.op)
                replay_order.append((keys[i], x.id))
                states.append(state)
                values[x.id] = reported
            self.stats.value_applications += len(order) - prefix
        return values[operation.id]

    # ------------------------------------------------------------ gossip path

    def receive_gossip(self, message: GossipMessage) -> None:
        sender = message.sender
        me = self.replica_id
        if sender == me:
            raise SpecificationError("a replica does not gossip with itself")
        if sender not in self.done:
            raise SpecificationError(f"gossip from unknown replica {sender!r}")

        if message.checkpoint is not None:
            self._merge_checkpoint(message.checkpoint)
        elif message.advert is not None:
            self._consider_advert(sender, message.advert)

        if not self._delta_basis_trusted(message):
            # Stale-basis delta after our volatile crash — same refusal as the
            # base class: keep the self-contained attachments, drop the
            # payload, and do not acknowledge the seqno.
            self.stats.stale_basis_deltas_skipped += 1
            self._record_gossip_bookkeeping(message, merged=False)
            self.stats.gossip_received += 1
            self._post_merge()
            return

        received = message.received
        done = message.done | message.stable
        stable = message.stable
        checkpoint = self.checkpoint
        done_me = self.done[me]
        if checkpoint.count:
            # Compaction removed folded records from every set, so anything
            # already tracked is not covered: coverage only needs testing on
            # elements genuinely new here (few, in steady state).  ``done``
            # covers ``stable``'s candidates, and anything covered is absent
            # from both ``rcvd`` and ``done[me]``.
            maybe_new = (received - self.rcvd) | (done - done_me)
            if maybe_new:
                covers = checkpoint.covers
                blocked = {x for x in maybe_new if covers(x.id)}
                if blocked:
                    received = received - blocked
                    done = done - blocked
                    stable = stable - blocked

        done_before = len(done_me)
        bits_for = self._bits_for

        new_rcvd = received - self.rcvd
        if new_rcvd:
            self.rcvd |= new_rcvd

        done_sender = self.done[sender]
        new_done_sender = done - done_sender
        if new_done_sender:
            done_sender |= new_done_sender
            self._done_bits[sender] |= bits_for(new_done_sender)
        promote = set(new_done_sender)

        new_done_me = done - done_me
        if new_done_me:
            done_me |= new_done_me
            self._done_index.update((x.id, x) for x in new_done_me)
            self._done_bits[me] |= bits_for(new_done_me)
            self._undone -= new_done_me
        if new_rcvd:
            self._undone |= new_rcvd - done_me

        for replica in self.replica_ids:
            if replica == me or replica == sender:
                continue
            target = self.done[replica]
            new_other = stable - target
            if new_other:
                target |= new_other
                self._done_bits[replica] |= bits_for(new_other)
                promote |= new_other

        # label_r <- min(label_r, L); note the maximum incoming rank so the
        # generator invariant behind fresh_monotone() is maintained (the
        # base class calls observed() per entry).  Lowered labels of
        # previously done operations are collected for the incremental
        # order-maintenance pass below.
        newly_done_ids = {x.id for x in new_done_me} if new_done_me else frozenset()
        reorders: List[Tuple[Label, Any]] = []
        if message.labels:
            labels = self.labels
            covers = checkpoint.covers if checkpoint.count else None
            done_ids = self._done_index
            labels_get = labels.get
            journal_versions = self._label_journal_versions
            journal_ids = self._label_journal_ids
            version = self._label_version
            max_rank = -1
            for op_id, label in message.labels.items():
                current = labels_get(op_id)
                if current is label:
                    # The sender re-sent the very object we already track (a
                    # merge stores the sender's instances, so steady-state
                    # re-deliveries hit this).  Its rank was counted toward
                    # the generator bound when it was first stored.
                    continue
                rank = label.rank
                if rank > max_rank:
                    max_rank = rank
                if current is None:
                    # A compacted operation's label was archived at the
                    # global minimum (Invariant 7.19); never re-track it.
                    if covers is None or not covers(op_id):
                        labels[op_id] = label
                        version += 1
                        journal_versions.append(version)
                        journal_ids.append(op_id)
                elif rank < current.rank or (
                    rank == current.rank and label.replica < current.replica
                ):
                    labels[op_id] = label
                    version += 1
                    journal_versions.append(version)
                    journal_ids.append(op_id)
                    if op_id in done_ids and op_id not in newly_done_ids:
                        reorders.append((current, op_id))
            self._label_version = version
            generator = self._label_generator
            if max_rank >= generator._next_rank:
                generator._next_rank = max_rank + 1

        # Instead of marking the order dirty (a full re-sort plus a full
        # replay-prefix comparison downstream), splice the changes into the
        # sorted order in place and truncate the replay cache at the first
        # affected position.  Label lowerings of *undone* operations do not
        # move anything in the order and need no bookkeeping at all.
        if (reorders or new_done_me) and not self._order_dirty:
            self._apply_order_changes(reorders, new_done_me)

        stable_sender = self.stable[sender]
        new_stable_sender = stable - stable_sender
        if new_stable_sender:
            stable_sender |= new_stable_sender
            self._stable_bits[sender] |= bits_for(new_stable_sender)
        stable_me = self.stable[me]
        new_stable_me = stable - stable_me
        if new_stable_me:
            stable_me |= new_stable_me
            self._stable_bits[me] |= bits_for(new_stable_me)

        # Incremental stability promotion: only operations newly added to a
        # peer's done set can newly enter the everywhere-done intersection
        # (done[me] contains every other done[i], so local do_it never
        # changes it; see the module docstring).
        promote -= stable_me
        if promote:
            newly = promote.intersection(*self.done.values())
            if newly:
                stable_me |= newly
                self._stable_bits[me] |= bits_for(newly)

        self._state_version += 1
        self._record_gossip_bookkeeping(message)
        self.stats.gossip_received += 1
        self._post_merge()

    def _apply_order_changes(self, reorders, new_done_me) -> None:
        """Splice a gossip merge's order changes into the sorted done order.

        *reorders* are ``(old_label, op_id)`` pairs for already-done
        operations whose label was lowered; *new_done_me* are operations that
        just entered ``done[me]``.  Packed keys are unique (labels are
        globally unique and each done operation has exactly one), so
        ``bisect_left`` on the key backbone locates elements exactly.  The
        replay cache is truncated at the first affected position — entries
        below it were never moved, so it remains a prefix of the new order
        and the epoch-tagged fast path in ``_compute_value_incremental``
        stays valid (stale ``_replay_values`` entries beyond the truncation
        point are always overwritten by the tail replay before being read).
        """
        keys = self._order_keys
        cache = self._order_cache
        labels = self.labels
        stride = self._rank_stride
        index = self._replica_index
        min_pos = len(self._replay_order)
        for old_label, op_id in reorders:
            old_key = old_label.rank * stride + index[old_label.replica]
            pos = bisect_left(keys, old_key)
            if pos >= len(keys) or cache[pos].id != op_id:  # pragma: no cover
                # Mirror out of sync (an op done without a tracked label):
                # fall back to a full re-sort; the epoch bump re-validates
                # the replay cache through the base prefix comparison.
                self._order_dirty = True
                return
            x = cache.pop(pos)
            del keys[pos]
            if pos < min_pos:
                min_pos = pos
            label = labels[op_id]
            new_key = label.rank * stride + index[label.replica]
            pos = bisect_left(keys, new_key)
            keys.insert(pos, new_key)
            cache.insert(pos, x)
            if pos < min_pos:
                min_pos = pos
        for x in new_done_me:
            label = labels.get(x.id)
            if label is None:  # pragma: no cover - defensive
                # Done without a label (gossip never produces this): the
                # sorted backbone cannot place it; re-sort instead.
                self._order_dirty = True
                return
            new_key = label.rank * stride + index[label.replica]
            pos = bisect_left(keys, new_key)
            keys.insert(pos, new_key)
            cache.insert(pos, x)
            if pos < min_pos:
                min_pos = pos
        if min_pos < len(self._replay_order):
            del self._replay_order[min_pos:]
            del self._replay_states[min_pos:]

    def _promote_stable(self) -> None:
        # Direct calls (the fast receive_gossip promotes inline): keep the
        # bitset mirror in lockstep with the authoritative set.
        everywhere = set.intersection(*self.done.values())
        new = everywhere - self.stable[self.replica_id]
        if new:
            self.stable[self.replica_id] |= new
            bits = 0
            for x in new:
                bits |= 1 << self._slot_for(x.id)
            self._stable_bits[self.replica_id] |= bits

    def _mark_coverage_stable(self, tracked) -> None:
        if not tracked:
            return
        bits = 0
        slot_for = self._slot_for
        for x in tracked:
            bits |= 1 << slot_for(x.id)
        for i in self.replica_ids:
            self.done[i] |= tracked
            self.stable[i] |= tracked
            self._done_bits[i] |= bits
            self._stable_bits[i] |= bits
        self._state_version += 1

    # --------------------------------------------------- checkpoint compaction

    def compactable_prefix(self) -> List:
        order = self.done_order()
        if not order:
            return []
        all_stable = -1
        for bits in self._stable_bits.values():
            all_stable &= bits
            if not all_stable:
                return []
        pending = self.pending
        slots = self._slots
        prefix: List = []
        for x in order:
            if x in pending or not (all_stable >> slots[x.id]) & 1:
                break
            prefix.append(x)
        return prefix

    def _after_compaction(self, removed) -> None:
        # The base class already head-trimmed ``_order_cache`` by the folded
        # prefix; trim the key backbone to match (the prefix property of the
        # replay cache is preserved — ``_rebase_replay_cache`` trimmed it by
        # the same count).
        count = len(removed)
        if not self._order_dirty:
            if len(self._order_keys) == len(self._order_cache) + count:
                del self._order_keys[:count]
            else:  # pragma: no cover - defensive
                self._order_dirty = True
        # Retire the folded operations' slots and clear their bits instead
        # of rebuilding every mirror; re-index densely only once the slot
        # space is mostly holes, keeping bitset width bounded by a small
        # multiple of the live unstable suffix.
        mask = 0
        slots = self._slots
        done_index = self._done_index
        repr_cache = self._repr_cache
        for x in removed:
            slot = slots.pop(x.id, None)
            if slot is not None:
                mask |= 1 << slot
            done_index.pop(x.id, None)
            repr_cache.pop(x.id, None)
        if mask:
            keep = ~mask
            for i in self.replica_ids:
                self._done_bits[i] &= keep
                self._stable_bits[i] &= keep
        if self._slot_count > 128 and self._slot_count > 4 * len(slots):
            self._rebuild_fast_state()

    def _coverage_position(self, coverage):
        # Absorbed memo: once a coverage with this (or a larger) frontier has
        # been fully absorbed — every covered operation marked done+stable
        # everywhere or folded into our own checkpoint — a nested coverage
        # conveys nothing new.  The stable prefix is totally ordered, so an
        # equal-or-smaller frontier means an equal-or-smaller id set; both
        # callers (`_merge_checkpoint`, `_consider_advert`/`_refresh_await`)
        # treat ``(set(), 0)`` as already absorbed (`_absorb_coverage`
        # accepts an empty tracked set without re-verifying the order).
        frontier = coverage.frontier
        absorbed = self._absorbed_frontier
        if absorbed is not None and label_sort_key(frontier) <= label_sort_key(absorbed):
            return set(), 0
        # The base class scans every done-here operation against the incoming
        # coverage — per attached checkpoint, on every gossip message.  In
        # steady state the incoming summary covers only slightly more than our
        # own checkpoint, so enumerate that interval difference instead and
        # probe the done index: tracked operations are never covered by our
        # own checkpoint (compaction drops their records), so every done-here
        # operation the coverage covers lies in the difference.
        ours = self.checkpoint.ids
        cov_ids = coverage.ids
        done_index = self._done_index
        diff_count = coverage.count - ours.intersection_count(cov_ids)
        if diff_count > 2 * len(done_index) + 64 or (
            ours.count and not ours.issubset(cov_ids)
        ):
            # Far behind (crash recovery) or non-nested summaries: the base
            # scan over done-here is the cheaper/safer path.
            tracked, missing = super()._coverage_position(coverage)
        else:
            tracked = set()
            missing = 0
            ours_ranges = ours.ranges
            for client, theirs in cov_ids.ranges.items():
                mine = ours_ranges.get(client, ())
                for seqno in _iter_interval_diff(theirs, mine):
                    x = done_index.get(OperationId(client=client, seqno=seqno))
                    if x is not None:
                        tracked.add(x)
                    else:
                        missing += 1
        return tracked, missing

    def _note_coverage_absorbed(self, frontier) -> None:
        # Memoize only once the absorption actually happened — a
        # zero-missing scan can still be refused by the fold-order check
        # (`_absorb_coverage`), and a refused coverage must be re-examined
        # by every subsequent advert until the body is adopted.
        self._absorbed_frontier = frontier

    def _on_checkpoint_adopted(self) -> None:
        self._absorbed_frontier = None
        self._rebuild_fast_state()

    def _on_crash(self) -> None:
        # The marking knowledge behind the absorbed memo was volatile.
        self._absorbed_frontier = None
        self._repr_cache = {}
        self._rebuild_fast_state()
