"""The checkpoint content digest against its reference formula.

``Checkpoint.digest`` is assembled from a value index that
``Checkpoint.extend`` carries forward, splicing in only the folded and the
evicted identifiers.  The digest is part of the wire contract (adverts,
pull requests and transfers carry it; the conformance corpus pins it), so it
must stay byte-identical to the direct formula kept here as
:func:`reference_digest`: sort the retained ids, render every retained
value, hash the ``repr`` of the whole tuple.

Random extend/evict sequences are driven through every way a checkpoint is
built: compaction (``extend``), codec decode, transfer reassembly
(``TransferAssembly.assemble``) and wholesale adoption (``merged_values``),
including rebuilt checkpoints that are extended afterwards.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithm.checkpoint import Checkpoint, CompactionPolicy, canonical_repr
from repro.algorithm.labels import Label
from repro.algorithm.messages import GossipMessage, RequestMessage, checkpoint_transfers
from repro.algorithm.replica import ReplicaCore, TransferAssembly
from repro.common import OperationId, OperationIdGenerator
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.datatypes.directory import DirectoryType
from repro.datatypes.gset import GSetType
from repro.net.codec import decode_frame, encode_frame
from repro.service.keyed import KeyedStore


def reference_digest(checkpoint: Checkpoint) -> str:
    """The checkpoint digest computed directly from its fields."""
    material = repr((
        checkpoint.frontier,
        sorted(checkpoint.ids.ranges.items()),
        checkpoint.count,
        canonical_repr(checkpoint.base_state),
        tuple(
            (repr(op_id), canonical_repr(checkpoint.values[op_id]))
            for op_id in sorted(checkpoint.values)
        ),
        checkpoint.order_digest,
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Operation generators, one per data type
# --------------------------------------------------------------------------- #

NAMES = ("a", "b", "c")


def counter_op(choice: int):
    return CounterType.read() if choice % 3 == 0 else CounterType.add(choice)


def keyed_op(choice: int):
    return KeyedStore.at(NAMES[choice % 3], counter_op(choice // 3))


def directory_op(choice: int):
    name = NAMES[choice % 3]
    kind = (choice // 3) % 5
    if kind == 0:
        return DirectoryType.create(name)
    if kind == 1:
        # Set-valued attributes: ``lookup`` then reports them inside its
        # value, which exercises canonical_repr's set rendering.
        return DirectoryType.set_attr(name, "tags", frozenset({choice, 9, -choice}))
    if kind == 2:
        return DirectoryType.lookup(name)
    if kind == 3:
        return DirectoryType.remove(name)
    return DirectoryType.list_names()


def gset_op(choice: int):
    return GSetType.snapshot() if choice % 2 else GSetType.insert(choice % 7)


DATA_TYPES = {
    "counter": (CounterType(), counter_op),
    "keyed": (KeyedStore(CounterType()), keyed_op),
    "directory": (DirectoryType(), directory_op),
    "gset": (GSetType(), gset_op),
}

RETENTIONS = (None, 1, 3, 1024)


class History:
    """Mints operations and labels for successive compaction batches."""

    def __init__(self, make_op) -> None:
        self.make_op = make_op
        self.seqnos = {}
        self.rank = 0

    def batch(self, picks):
        prefix, labels = [], {}
        for client, choice in picks:
            seqno = self.seqnos.get(client, 0) + 1
            self.seqnos[client] = seqno
            self.rank += 1
            operation = make_operation(self.make_op(choice), OperationId(client, seqno))
            prefix.append(operation)
            labels[operation.id] = Label(self.rank, "r0")
        return prefix, labels


# --------------------------------------------------------------------------- #
# Rebuilders: every other way a checkpoint comes into being
# --------------------------------------------------------------------------- #


def rebuild_by_decode(checkpoint, _older, _retention):
    message = GossipMessage(
        sender="r0", received=frozenset(), done=frozenset(), labels={},
        stable=frozenset(), checkpoint=checkpoint,
    )
    (decoded,) = decode_frame(encode_frame([message]))
    return decoded.checkpoint


def rebuild_by_transfer(checkpoint, _older, _retention):
    transfers = checkpoint_transfers(checkpoint, "r0", "r1", epoch=0, chunk=2)
    assembly = TransferAssembly(
        digest=checkpoint.digest(), epoch=0, frontier=checkpoint.frontier,
        chunk_count=len(transfers),
    )
    for transfer in transfers:
        assembly.chunks[transfer.chunk_index] = transfer
    return assembly.assemble()


def rebuild_by_adoption(checkpoint, older, retention):
    # What a replica that is missing part of the prefix does on receipt
    # (ReplicaCore._merge_checkpoint): adopt the incoming body and keep
    # its own older retained values.
    return Checkpoint(
        base_state=checkpoint.base_state,
        frontier=checkpoint.frontier,
        ids=checkpoint.ids,
        values=older.merged_values(checkpoint.values, retention),
        order_digest=checkpoint.order_digest,
    )


REBUILDERS = {
    "decode": rebuild_by_decode,
    "transfer": rebuild_by_transfer,
    "adoption": rebuild_by_adoption,
}


steps = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from(("c0", "c1", "c2")), st.integers(0, 60)),
            max_size=8,
        ),
        st.sampled_from((None,) + tuple(REBUILDERS)),
        st.booleans(),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(tuple(DATA_TYPES)),
    retention=st.sampled_from(RETENTIONS),
    script=steps,
)
def test_digest_matches_reference_through_extend_evict_and_rebuild(kind, retention, script):
    data_type, make_op = DATA_TYPES[kind]
    history = History(make_op)
    checkpoint = Checkpoint.empty(data_type.initial_state())
    assert checkpoint.digest() == reference_digest(checkpoint)
    for picks, rebuilder, digested in script:
        older = checkpoint
        prefix, labels = history.batch(picks)
        checkpoint, applications = checkpoint.extend(prefix, data_type, labels, retention)
        assert applications == len(prefix)
        # An undigested step leaves the next checkpoint's index lazy.
        if digested:
            assert checkpoint.digest() == reference_digest(checkpoint)
        if rebuilder is not None:
            checkpoint = REBUILDERS[rebuilder](checkpoint, older, retention)
            if digested:
                assert checkpoint.digest() == reference_digest(checkpoint)
    assert checkpoint.digest() == reference_digest(checkpoint)


@pytest.mark.parametrize("kind", sorted(DATA_TYPES))
@pytest.mark.parametrize("retention", RETENTIONS, ids=str)
def test_long_history_digest_per_compaction(kind, retention):
    """Many small folds past the retention window (the steady state the
    carried index exists for): every intermediate digest is exact."""
    data_type, make_op = DATA_TYPES[kind]
    history = History(make_op)
    checkpoint = Checkpoint.empty(data_type.initial_state())
    for step in range(150):
        picks = [(f"c{(step + i) % 3}", step * 7 + i) for i in range(step % 9)]
        prefix, labels = history.batch(picks)
        checkpoint, _ = checkpoint.extend(prefix, data_type, labels, retention)
        assert checkpoint.digest() == reference_digest(checkpoint)
    if retention is not None:
        assert len(checkpoint.values) == min(retention, checkpoint.count)


def test_index_is_carried_only_from_a_digested_checkpoint():
    """Compaction without adverts never takes a digest, so ``extend`` must
    not build or carry an index for it; once a digest is taken, the index
    is carried from then on."""
    history = History(counter_op)
    checkpoint = Checkpoint.empty(0)
    for step in range(5):
        prefix, labels = history.batch([("c0", step * 2), ("c1", step * 2 + 1)])
        checkpoint, _ = checkpoint.extend(prefix, CounterType(), labels, 3)
        assert "_value_index" not in checkpoint.__dict__
    assert checkpoint.digest() == reference_digest(checkpoint)
    for step in range(5, 9):
        prefix, labels = history.batch([("c2", step)])
        checkpoint, _ = checkpoint.extend(prefix, CounterType(), labels, 3)
        assert "_value_index" in checkpoint.__dict__
        assert checkpoint.digest() == reference_digest(checkpoint)


def test_empty_checkpoint_and_empty_fold():
    checkpoint = Checkpoint.empty(0)
    assert checkpoint.digest() == reference_digest(checkpoint)
    same, applications = checkpoint.extend([], CounterType(), {}, 3)
    assert applications == 0
    assert same.digest() == reference_digest(same) == checkpoint.digest()


def test_single_retained_value_renders_as_one_tuple():
    """A one-element tuple's ``repr`` ends in ``,)``; the assembled
    material must reproduce that exactly."""
    history = History(counter_op)
    checkpoint = Checkpoint.empty(0)
    for step in range(4):
        prefix, labels = history.batch([("c0", step + 1), ("c1", step + 2)])
        checkpoint, _ = checkpoint.extend(prefix, CounterType(), labels, 1)
        assert len(checkpoint.values) == 1
        assert checkpoint.digest() == reference_digest(checkpoint)
    assert checkpoint._value_index.material().endswith(",)")


@pytest.mark.parametrize("rebuilder", sorted(REBUILDERS))
def test_rebuilt_checkpoint_extends_exactly(rebuilder):
    data_type, make_op = DATA_TYPES["directory"]
    history = History(make_op)
    older = Checkpoint.empty(data_type.initial_state())
    prefix, labels = history.batch([("c0", i) for i in range(6)])
    checkpoint, _ = older.extend(prefix, data_type, labels, 3)
    rebuilt = REBUILDERS[rebuilder](checkpoint, older, 3)
    assert rebuilt.digest() == checkpoint.digest()
    prefix, labels = history.batch([("c1", i) for i in range(4, 9)])
    from_original, _ = checkpoint.extend(prefix, data_type, labels, 3)
    from_rebuilt, _ = rebuilt.extend(prefix, data_type, labels, 3)
    assert from_rebuilt.digest() == from_original.digest() == reference_digest(from_rebuilt)


def test_replica_adoption_after_volatile_crash_matches_reference(monkeypatch):
    """End to end through ``ReplicaCore``: r2 folded a first batch, crashes
    before folding a second one that r1 has already folded, and on
    recovery adopts r1's checkpoint wholesale (keeping its own older
    values).  Every checkpoint involved, before and after later folds,
    digests to the reference."""
    adoptions = []
    merged_values = Checkpoint.merged_values

    def spy(self, newer, retention=None):
        adoptions.append(retention)
        return merged_values(self, newer, retention)

    monkeypatch.setattr(Checkpoint, "merged_values", spy)
    ids = ["r1", "r2"]
    data_type = KeyedStore(CounterType())
    r1 = ReplicaCore("r1", ids, data_type)
    r2 = ReplicaCore("r2", ids, data_type)
    r1.configure_compaction(CompactionPolicy(min_batch=1, value_retention=3))
    r2.configure_compaction(CompactionPolicy(min_batch=4, value_retention=3))
    gen = OperationIdGenerator("c0")

    def feed(count):
        for i in range(count):
            operation = make_operation(keyed_op(i), gen.fresh())
            r1.receive_request(RequestMessage(operation))
        r1.do_all_ready()
        for operation in list(r1.ready_responses()):
            r1.make_response(operation)

    def exchange(rounds):
        for _ in range(rounds):
            r2.receive_gossip(r1.make_gossip("r2"))
            r1.receive_gossip(r2.make_gossip("r1"))

    feed(5)
    exchange(3)
    assert r1.checkpoint.count == r2.checkpoint.count == 5
    feed(2)
    exchange(3)
    assert (r1.checkpoint.count, r2.checkpoint.count) == (7, 5)
    r2.crash(volatile_memory=True)
    r2.recover_from_stable_storage()
    r2.receive_gossip(r1.make_gossip("r2"))
    assert adoptions == [3]
    assert r2.checkpoint.count == 7
    assert r2.checkpoint.digest() == r1.checkpoint.digest()
    feed(6)
    exchange(3)
    for replica in (r1, r2):
        assert replica.checkpoint.count == 13
        assert replica.checkpoint.digest() == reference_digest(replica.checkpoint)
