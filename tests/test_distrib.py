"""Distributed shard coordination suite: wire protocol, lease
scheduling, journal merge, chaos-driven reassignment and crash-safe
resume.

The contract under test is the distribution tentpole: a run sharded
over TCP workers produces results bit-identical to the serial run, a
killed or partitioned worker costs a lease (reassigned), never a chunk
(lost or doubled), and a coordinator that dies resumes from its merged
journal without recomputing.
"""

import json
import shutil
import socket
import struct
import tempfile
import threading
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import build_parser, main as cli_main
from repro.obs.timeline import analyze_spans
from repro.compress.sz import SZCompressor
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.core.pipeline import InferencePipeline, split_chunks
from repro.core.planner import TolerancePlanner
from repro.distrib import (
    DistribConfig,
    DrainedError,
    FrameSocket,
    ShardCoordinator,
    ShardWorker,
    decode_artifact,
    encode_artifact,
    fingerprints_equal,
    manifest_identity,
)
from repro.distrib.protocol import (
    msg_hello,
    msg_lease_request,
    msg_result,
)
from repro.exceptions import (
    ConfigurationError,
    IntegrityError,
    PlanningError,
    ProtocolError,
)
from repro.io import CheckpointJournal, append_jsonl, digest_array, digest_bytes
from repro.io.checkpoint import digest_model
from repro.resilience import CHAOS_ENV_VAR, ChaosInjector, RetryPolicy, fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="shard workers use the fork-based supervised pool"
)

#: fast deterministic connect backoff so reconnect tests never dawdle
FAST_CONNECT = RetryPolicy(max_retries=6, base_delay=0.02, max_delay=0.2, jitter=0.0)


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    """Tests control chaos explicitly; the environment must not leak in."""
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)


# -- wire protocol ----------------------------------------------------------


def _framed_pair():
    """One framed end and one raw end of an in-process socket pair."""
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return FrameSocket(left, role="worker"), right


def test_frame_roundtrip():
    a_sock, b_sock = socket.socketpair()
    a, b = FrameSocket(a_sock, role="worker"), FrameSocket(b_sock, role="coordinator")
    message = msg_result(3, 1, {"input_digest": "ab"}, encode_artifact(b"\x00\x01"))
    a.send(message)
    assert b.recv() == message
    a.close()
    assert b.recv() is None  # clean EOF between frames
    b.close()


def test_recv_rejects_mid_frame_close():
    framed, raw = _framed_pair()
    raw.sendall(struct.pack("!I", 10) + b"abc")
    raw.close()
    with pytest.raises(ProtocolError, match="mid-frame"):
        framed.recv()
    framed.close()


def test_recv_rejects_oversized_frame():
    framed, raw = _framed_pair()
    raw.sendall(struct.pack("!I", (1 << 30) + 1))
    with pytest.raises(ProtocolError, match="limit"):
        framed.recv()
    framed.close()
    raw.close()


def test_recv_rejects_undecodable_json():
    framed, raw = _framed_pair()
    payload = b"{not json"
    raw.sendall(struct.pack("!I", len(payload)) + payload)
    with pytest.raises(ProtocolError, match="undecodable"):
        framed.recv()
    framed.close()
    raw.close()


def test_recv_rejects_unknown_message_type():
    framed, raw = _framed_pair()
    payload = b'{"type": "bogus"}'
    raw.sendall(struct.pack("!I", len(payload)) + payload)
    with pytest.raises(ProtocolError, match="unknown message type"):
        framed.recv()
    framed.close()
    raw.close()


def test_artifact_encoding_roundtrip():
    data = bytes(range(256))
    assert decode_artifact(encode_artifact(data)) == data
    with pytest.raises(ProtocolError):
        decode_artifact("not base64 !!")


def test_fingerprints_equal_is_order_insensitive():
    assert fingerprints_equal({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert not fingerprints_equal({"a": 1}, {"a": 2})


def test_manifest_identity_covers_digests():
    base = {"fingerprint": {"codec": "sz"}, "chunk_digests": ["aa", "bb"]}
    assert manifest_identity(base) == manifest_identity(dict(base))
    assert manifest_identity(base) != manifest_identity(
        {"fingerprint": {"codec": "sz"}, "chunk_digests": ["aa", "cc"]}
    )


# -- split_chunks / config validation ---------------------------------------


def test_split_chunks_covers_fields():
    fields = np.arange(60, dtype=np.float32).reshape(5, 12)
    chunks = split_chunks(fields, 5, chunk_axis=1)
    assert [c.shape for c in chunks] == [(5, 5), (5, 5), (5, 2)]
    assert np.array_equal(np.concatenate(chunks, axis=1), fields)


def test_split_chunks_rejects_bad_sizes():
    fields = np.ones((4, 4), dtype=np.float32)
    with pytest.raises(PlanningError):
        split_chunks(fields, 0)
    with pytest.raises(PlanningError):
        split_chunks(np.ones((0, 4), dtype=np.float32), 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lease_ttl": 0.0},
        {"shard_size": 0},
        {"expect_workers": -1},
        {"worker_wait": -1.0},
    ],
)
def test_distrib_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        DistribConfig(**kwargs)


# -- journal merge (satellite: duplicate-entry replay) -----------------------


def _tiny_journal(path):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    digest = digest_array(arr)
    manifest = {"fingerprint": {"codec": "test"}, "chunk_digests": [digest]}
    journal = CheckpointJournal(str(path))
    journal.begin(manifest)
    entry = journal.record(
        0,
        outputs=arr,
        reference_outputs=arr,
        blob_bytes=b"blob-bytes",
        entry={"input_digest": digest, "attempts": 1},
    )
    return journal, manifest, entry


def test_replay_duplicate_with_equal_digest_is_last_wins(tmp_path):
    journal, manifest, entry = _tiny_journal(tmp_path)
    append_jsonl(journal.journal_path, dict(entry, attempts=7))
    completed = CheckpointJournal(str(tmp_path)).begin(manifest, resume=True)
    # same certified bytes, so the later (fresher) metadata wins
    assert completed[0]["attempts"] == 7


def test_replay_conflicting_duplicate_keeps_first_verified(tmp_path):
    journal, manifest, entry = _tiny_journal(tmp_path)
    append_jsonl(
        journal.journal_path, dict(entry, attempts=9, artifact_digest="0" * 32)
    )
    completed = CheckpointJournal(str(tmp_path)).begin(manifest, resume=True)
    # the artifact on disk can only match one digest: first verified wins
    assert completed[0]["attempts"] == 1
    assert completed[0]["artifact_digest"] == entry["artifact_digest"]


def test_record_raw_adopts_bytes_verbatim(tmp_path):
    journal, manifest, entry = _tiny_journal(tmp_path / "a")
    with open(f"{journal.path}/{entry['artifact']}", "rb") as handle:
        data = handle.read()
    other = CheckpointJournal(str(tmp_path / "b"))
    other.begin(manifest)
    merged = other.record_raw(
        0, data=data, entry={"input_digest": manifest["chunk_digests"][0]}
    )
    assert merged["artifact_digest"] == entry["artifact_digest"]
    with open(f"{other.path}/{merged['artifact']}", "rb") as handle:
        assert handle.read() == data


# -- executor resolution (the thread inference executor was removed) ---------


def test_thread_executor_removed_and_auto_never_picked_it():
    expected = "process" if fork_available() else "serial"
    assert InferencePipeline._resolve_executor("auto", 4) == expected
    assert InferencePipeline._resolve_executor("auto", 1) == "serial"
    assert InferencePipeline._resolve_executor("distributed", 1) == "distributed"
    # the GIL-bound thread pool is no longer an inference executor
    # (BENCH_pr4 showed no speedup; threads remain for chunked I/O)
    with pytest.raises(ConfigurationError):
        InferencePipeline._resolve_executor("thread", 4)
    with pytest.raises(ConfigurationError):
        InferencePipeline._resolve_executor("fancy", 2)


# -- CLI surface -------------------------------------------------------------


def test_cli_parses_coordinate_command():
    args = build_parser().parse_args(
        [
            "coordinate", "h2combustion", "--tolerance", "1e-2",
            "--chunk-size", "16", "--expect-workers", "2",
            "--lease-ttl", "5", "--checkpoint", "/tmp/ckpt",
        ]
    )
    assert args.command == "coordinate"
    assert args.expect_workers == 2
    assert args.lease_ttl == 5.0
    assert args.shard_size == 1


def test_cli_parses_worker_command():
    args = build_parser().parse_args(
        [
            "worker", "h2combustion", "--tolerance", "1e-2",
            "--chunk-size", "16", "--connect", "127.0.0.1:5000",
        ]
    )
    assert args.command == "worker"
    assert args.connect == "127.0.0.1:5000"


# -- coordinator + worker integration ---------------------------------------


@pytest.fixture(scope="module")
def distrib_setup(trained_spectral_mlp, tmp_path_factory):
    x = np.linspace(0, 2 * np.pi, 32)
    xx, yy = np.meshgrid(x, x)
    fields = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    ).astype(np.float32)
    planner = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp))
    plan = planner.plan(1e-2, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(trained_spectral_mlp, SZCompressor(), plan)
    serial_dir = tmp_path_factory.mktemp("serial-journal")
    serial = pipeline.execute_chunked(
        fields, chunk_size=8, chunk_axis=1, workers=1, checkpoint=str(serial_dir)
    )
    chunks = split_chunks(fields, 8, 1)
    digests = [digest_array(chunk) for chunk in chunks]
    manifest = pipeline._checkpoint_manifest(chunks, 8, 1, digests)
    return pipeline, fields, serial, manifest, str(serial_dir)


def _run_distributed(
    pipeline,
    fields,
    *,
    n_workers=2,
    chaos_specs=None,
    checkpoint=None,
    resume=False,
    lease_ttl=3.0,
    worker_wait=15.0,
    expect_workers=0,
    worker_checkpoints=None,
    metrics_port=None,
    on_coordinator=None,
):
    """Distributed run with in-thread worker agents launched on start."""
    summaries, errors, threads = [], [], []

    def launch(coordinator):
        host, port = coordinator.address
        if on_coordinator is not None:
            on_coordinator(coordinator)

        def run_one(index):
            spec = (chaos_specs or {}).get(index)
            try:
                agent = ShardWorker(
                    pipeline,
                    fields,
                    8,
                    chunk_axis=1,
                    name=f"w{index}",
                    workers=2,
                    connect_retry=FAST_CONNECT,
                    chaos=ChaosInjector.from_spec(spec) if spec else None,
                    checkpoint=(worker_checkpoints or {}).get(index),
                )
                summaries.append(agent.run(host, port))
            except Exception as exc:  # surfaced by the asserting test
                errors.append(exc)

        for index in range(n_workers):
            thread = threading.Thread(target=run_one, args=(index,), daemon=True)
            threads.append(thread)
            thread.start()

    config = DistribConfig(
        port=0,
        lease_ttl=lease_ttl,
        worker_wait=worker_wait,
        expect_workers=expect_workers,
        on_start=launch,
        metrics_port=metrics_port,
    )
    result = pipeline.execute_chunked(
        fields,
        chunk_size=8,
        chunk_axis=1,
        executor="distributed",
        distrib=config,
        checkpoint=checkpoint,
        resume=resume,
    )
    # the coordinator's shutdown drain sends every agent home; collect
    # their summaries before asserting on them
    for thread in threads:
        thread.join(timeout=15.0)
    assert not any(thread.is_alive() for thread in threads)
    return result, summaries, errors


@needs_fork
def test_distributed_matches_serial(distrib_setup):
    pipeline, fields, serial, _, _ = distrib_setup
    result, summaries, errors = _run_distributed(
        pipeline, fields, n_workers=2, expect_workers=2
    )
    assert errors == []
    assert np.array_equal(result.outputs, serial.outputs)
    assert np.array_equal(result.reference_outputs, serial.reference_outputs)
    distrib = result.extra["distrib"]
    assert distrib["outcome"] == "complete"
    assert distrib["workers_joined"] == 2
    assert distrib["results"]["accepted"] == 4
    assert distrib["results"]["rejected"] == 0
    assert result.extra["chunked"]["requested_executor"] == "distributed"
    assert result.extra["chunked"]["executor"] == "distributed"
    assert len(summaries) == 2
    assert sum(s["chunks_computed"] for s in summaries) == 4
    assert all(s["drained"] for s in summaries)
    assert result.qoi_error("linf", relative=False) <= pipeline.plan.qoi_tolerance


def _await_connection_threads(timeout: float = 10.0) -> None:
    """Wait for coordinator connection threads, which log their exit
    after the run that spawned them has returned."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and any(
        thread.name == "distrib-conn" for thread in threading.enumerate()
    ):
        time.sleep(0.01)


@needs_fork
def test_clean_shutdown_is_not_a_lost_connection(distrib_setup, capsys):
    """A clean loopback run's shutdown drain logs no lost worker."""
    pipeline, fields, _, _, _ = distrib_setup
    _await_connection_threads()
    capsys.readouterr()  # drop what earlier runs' threads logged
    result, summaries, errors = _run_distributed(
        pipeline, fields, n_workers=2, expect_workers=2
    )
    assert errors == []
    assert result.extra["distrib"]["outcome"] == "complete"
    _await_connection_threads()
    captured = capsys.readouterr()
    assert captured.out.count("worker left") == 2
    assert "worker connection lost" not in captured.out + captured.err


@needs_fork
def test_distributed_disconnect_chaos_reassigns(distrib_setup):
    """A partitioned worker reconnects; its lost lease is reassigned and
    every chunk still completes exactly once."""
    pipeline, fields, serial, _, _ = distrib_setup
    result, summaries, errors = _run_distributed(
        pipeline,
        fields,
        n_workers=2,
        expect_workers=2,
        chaos_specs={0: "disconnect@1", 1: "disconnect@1"},
    )
    assert errors == []
    assert np.array_equal(result.outputs, serial.outputs)
    distrib = result.extra["distrib"]
    assert distrib["outcome"] == "complete"
    assert distrib["results"]["accepted"] == 4
    # at least one connection died holding a lease -> expiry + re-lease
    assert distrib["leases_expired"] >= 1
    assert distrib["leases_reassigned"] >= 1
    assert sum(s["partitions"] for s in summaries) >= 1
    assert sum(s["reconnects"] for s in summaries) >= 1


@needs_fork
def test_distributed_refuses_mismatched_plan_then_degrades(distrib_setup):
    """A worker with a different plan is refused at handshake; with no
    usable workers the coordinator degrades to the local pool."""
    pipeline, fields, serial, _, _ = distrib_setup
    planner = TolerancePlanner(ErrorFlowAnalyzer(pipeline.model))
    other_plan = planner.plan(5e-2, norm="linf", quant_fraction=0.5)
    other = InferencePipeline(pipeline.model, SZCompressor(), other_plan)

    refused = []

    def launch(coordinator):
        host, port = coordinator.address

        def run_one():
            agent = ShardWorker(
                other, fields, 8, chunk_axis=1, name="intruder",
                workers=2, connect_retry=FAST_CONNECT,
            )
            with pytest.raises(IntegrityError, match="refused"):
                agent.run(host, port)
            refused.append(True)

        threading.Thread(target=run_one, daemon=True).start()

    config = DistribConfig(port=0, lease_ttl=1.0, worker_wait=1.5, on_start=launch)
    result = pipeline.execute_chunked(
        fields, chunk_size=8, chunk_axis=1, executor="distributed", distrib=config
    )
    assert refused == [True]
    distrib = result.extra["distrib"]
    assert distrib["outcome"] == "no_workers"
    assert distrib["handshake_refused"] == 1
    # degradation finished the run locally, bit-identical anyway
    assert np.array_equal(result.outputs, serial.outputs)
    assert "supervision" in result.extra


@needs_fork
def test_distributed_no_workers_degrades_local(distrib_setup):
    pipeline, fields, serial, _, _ = distrib_setup
    config = DistribConfig(port=0, lease_ttl=1.0, worker_wait=0.3)
    result = pipeline.execute_chunked(
        fields, chunk_size=8, chunk_axis=1, executor="distributed", distrib=config
    )
    assert result.extra["distrib"]["outcome"] == "no_workers"
    assert np.array_equal(result.outputs, serial.outputs)


def test_distributed_rejects_chaos_and_stray_config(distrib_setup):
    pipeline, fields, _, _, _ = distrib_setup
    with pytest.raises(ConfigurationError, match="worker processes"):
        pipeline.execute_chunked(
            fields, chunk_size=8, chunk_axis=1, executor="distributed",
            chaos=ChaosInjector.from_spec("kill@0"),
        )
    with pytest.raises(ConfigurationError, match="distributed"):
        pipeline.execute_chunked(
            fields, chunk_size=8, chunk_axis=1, distrib=DistribConfig()
        )


def test_requested_executor_recorded(distrib_setup):
    pipeline, fields, _, _, _ = distrib_setup
    result = pipeline.execute_chunked(
        fields, chunk_size=8, chunk_axis=1, workers=2, executor="auto"
    )
    chunked = result.extra["chunked"]
    assert chunked["requested_executor"] == "auto"
    assert chunked["executor"] == ("process" if fork_available() else "serial")


def test_straggler_dedup_and_result_validation(distrib_setup, tmp_path):
    """Raw-socket client: an expired lease is re-granted (straggler
    re-lease), duplicates dedup first-digest-wins, and tampered or
    mixed-plan results are rejected without consuming the chunk."""
    pipeline, fields, _, manifest, _ = distrib_setup
    chunks = split_chunks(fields, 8, 1)
    digests = list(manifest["chunk_digests"])

    # certified entries computed out-of-band (no network, no pool)
    local = CheckpointJournal(str(tmp_path / "local"))
    local.begin(manifest)
    entries, artifacts = {}, {}
    for index, chunk in enumerate(chunks):
        result = pipeline.execute(chunk)
        entries[index] = pipeline._journal_chunk(local, index, result, digests[index])
        with open(f"{local.path}/{entries[index]['artifact']}", "rb") as handle:
            artifacts[index] = handle.read()

    coordinator = ShardCoordinator(
        manifest,
        weights=digest_model(pipeline.model),
        config=DistribConfig(port=0, lease_ttl=0.4, worker_wait=30.0),
    )
    host, port = coordinator.start()
    summary_box = {}
    server = threading.Thread(
        target=lambda: summary_box.update(summary=coordinator.serve()), daemon=True
    )
    server.start()

    conn = FrameSocket(socket.create_connection((host, port)), role="worker")
    conn.settimeout(5.0)
    try:
        conn.send(
            msg_hello(
                "straggler",
                manifest["fingerprint"],
                manifest_identity(manifest),
                digest_model(pipeline.model),
            )
        )
        welcome = conn.recv()
        assert welcome["type"] == "welcome"

        conn.send(msg_lease_request())
        lease = conn.recv()
        assert lease["type"] == "lease" and lease["chunks"] == [0]
        time.sleep(3.0 * 0.4)  # never heartbeat: let the lease expire

        conn.send(msg_lease_request())
        release = conn.recv()
        assert release["chunks"] == [0]  # straggler re-lease, same chunk

        def submit(index, entry, data):
            conn.send(
                msg_result(release["lease"], index, entry, encode_artifact(data))
            )
            ack = conn.recv()
            assert ack["type"] == "result_ack" and ack["chunk"] == index
            return ack["status"]

        assert submit(0, entries[0], artifacts[0]) == "accepted"
        # byte-identical resubmission: harmless duplicate
        assert submit(0, entries[0], artifacts[0]) == "duplicate"
        # differing bytes for a certified chunk: first digest wins
        forged = artifacts[0] + b"\x00"
        conflicting = dict(entries[0], artifact_digest=digest_bytes(forged))
        assert submit(0, conflicting, forged) == "conflict"
        # declared digest disagrees with the bytes: tampered in transit
        tampered = dict(entries[1], artifact_digest="0" * 32)
        assert submit(1, tampered, artifacts[1]) == "rejected"
        # wrong input digest: computed on different bytes (mixed plan)
        stale = dict(entries[1], input_digest=digests[0])
        assert submit(1, stale, artifacts[1]) == "rejected"
        # valid submissions finish the run (results need no live lease)
        for index in (1, 2, 3):
            assert submit(index, entries[index], artifacts[index]) == "accepted"
    finally:
        conn.close()
    server.join(timeout=10.0)
    assert not server.is_alive()

    summary = summary_box["summary"]
    assert summary["outcome"] == "complete"
    assert summary["completed_chunks"] == 4
    assert summary["results"] == {
        "accepted": 4, "duplicate": 1, "conflict": 1, "rejected": 2,
    }
    assert summary["leases_expired"] == 1
    assert summary["leases_reassigned"] == 1


def test_drain_before_completion_raises_drained_error(distrib_setup, tmp_path):
    pipeline, fields, _, _, _ = distrib_setup
    config = DistribConfig(
        port=0,
        lease_ttl=1.0,
        worker_wait=30.0,
        on_start=lambda c: c.request_drain("test drain"),
    )
    with pytest.raises(DrainedError, match="resume"):
        pipeline.execute_chunked(
            fields,
            chunk_size=8,
            chunk_axis=1,
            executor="distributed",
            distrib=config,
            checkpoint=str(tmp_path / "ckpt"),
        )


@needs_fork
def test_coordinator_resume_replays_merged_journal(distrib_setup, tmp_path):
    """The merged journal is a first-class checkpoint: a new run resumes
    from it, replaying every remote chunk without recomputing."""
    pipeline, fields, serial, _, _ = distrib_setup
    checkpoint = str(tmp_path / "merged")
    first, _, errors = _run_distributed(
        pipeline, fields, n_workers=2, expect_workers=2, checkpoint=checkpoint
    )
    assert errors == []
    assert first.extra["distrib"]["outcome"] == "complete"

    # simulate the coordinator dying after the run: resume from its journal
    config = DistribConfig(port=0, lease_ttl=1.0, worker_wait=0.2)
    resumed = pipeline.execute_chunked(
        fields,
        chunk_size=8,
        chunk_axis=1,
        executor="distributed",
        distrib=config,
        checkpoint=checkpoint,
        resume=True,
    )
    assert resumed.extra["checkpoint"]["replayed_chunks"] == 4
    assert resumed.extra["checkpoint"]["computed_chunks"] == 0
    # nothing was pending, so no coordinator (and no workers) ran at all
    assert "distrib" not in resumed.extra
    assert np.array_equal(resumed.outputs, serial.outputs)
    assert np.array_equal(resumed.reference_outputs, serial.reference_outputs)


@needs_fork
@settings(max_examples=4, deadline=None)
@given(fault_chunk=st.integers(min_value=0, max_value=3))
def test_merged_journal_matches_serial_under_partitions(
    distrib_setup, fault_chunk
):
    """Property (satellite): wherever the partition lands, the merged
    journal certifies the same computation as the serial journal —
    same chunks, same input digests, identical replayed arrays."""
    pipeline, fields, _, manifest, serial_dir = distrib_setup
    workdir = tempfile.mkdtemp(prefix="repro-distrib-prop-")
    try:
        result, _, errors = _run_distributed(
            pipeline,
            fields,
            n_workers=2,
            expect_workers=2,
            checkpoint=f"{workdir}/merged",
            chaos_specs={
                0: f"disconnect@{fault_chunk}",
                1: f"disconnect@{fault_chunk}",
            },
            worker_checkpoints={0: f"{workdir}/w0", 1: f"{workdir}/w1"},
        )
        assert errors == []
        assert result.extra["distrib"]["outcome"] == "complete"

        merged = CheckpointJournal(f"{workdir}/merged")
        merged_entries = merged.begin(manifest, resume=True)
        reference = CheckpointJournal(serial_dir)
        serial_entries = reference.begin(manifest, resume=True)
        assert set(merged_entries) == set(serial_entries) == {0, 1, 2, 3}
        for index in range(4):
            ours, theirs = merged_entries[index], serial_entries[index]
            assert ours["input_digest"] == theirs["input_digest"]
            mine, ref = merged.load(ours), reference.load(theirs)
            assert np.array_equal(mine["outputs"], ref["outputs"])
            assert np.array_equal(
                mine["reference_outputs"], ref["reference_outputs"]
            )
            assert mine["blob_bytes"] == ref["blob_bytes"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- distributed tracing + live ops plane ------------------------------------


@needs_fork
def test_distributed_trace_stitches_one_trace_across_chaos(distrib_setup):
    """The observability tentpole, end to end: a chaos-partitioned
    2-worker run — one disconnect mid-lease, one artificially slow
    chunk — still lands every span in ONE trace (zero orphans), and
    the timeline analyzer names the slow chunk as the straggler."""
    pipeline, fields, serial, _, _ = distrib_setup
    with obs.capture() as (tracer, _):
        result, summaries, errors = _run_distributed(
            pipeline,
            fields,
            expect_workers=2,
            chaos_specs={
                0: "disconnect@1,slow@2:all=1.5",
                1: "slow@2:all=1.5",
            },
        )
        spans = tracer.to_dicts()
    assert errors == []
    np.testing.assert_array_equal(result.outputs, serial.outputs)

    # one stitched trace: every span shares the run's trace id and is
    # reachable from a root — nothing orphaned by the partition
    assert {span["trace_id"] for span in spans} == {tracer.trace_id}
    report = analyze_spans(spans)
    assert report["orphans"]["count"] == 0
    assert report["n_spans"] == len(spans) > 0

    # the lease schedule was reconstructed: all four chunks accounted
    # for, with per-worker utilization over the run wall
    assert sum(w["chunks"] for w in report["workers"].values()) == 4
    assert set(report["workers"]) <= {"w0", "w1"}
    for stats in report["workers"].values():
        assert stats["busy_s"] > 0.0 and 0.0 < stats["utilization"] <= 1.0

    # the chaos-slowed chunk shows up as the straggler
    straggler_chunks = [s["chunk"] for s in report["stragglers"]]
    assert 2 in straggler_chunks
    slow = next(s for s in report["stragglers"] if s["chunk"] == 2)
    assert slow["run_s"] >= 1.5 and slow["ratio_to_median"] > 2.0

    assert report["critical_path"], "critical path must be non-empty"
    assert report["phase_seconds"]["run"] >= 1.5

    # the same analysis rides back on the result itself
    timeline = result.extra["timeline"]
    assert timeline["orphans"]["count"] == 0
    assert 2 in [s["chunk"] for s in timeline["stragglers"]]

    # worker spans made it over the wire (or through the fork seam)
    names = {span["name"] for span in spans}
    assert {"distrib.serve", "distrib.chunk", "worker.lease"} <= names


@needs_fork
def test_live_endpoints_respond_during_run(distrib_setup):
    """/status and /metrics answer while the run is in flight and see
    both connected workers."""
    pipeline, fields, serial, _, _ = distrib_setup
    statuses, metric_bodies = [], []
    stop = threading.Event()
    pollers = []

    def poll(address):
        host, port = address
        base = f"http://{host}:{port}"
        while not stop.is_set():
            try:
                with urllib.request.urlopen(f"{base}/status", timeout=2.0) as r:
                    statuses.append(json.loads(r.read()))
                with urllib.request.urlopen(f"{base}/metrics", timeout=2.0) as r:
                    metric_bodies.append(r.read().decode())
            except OSError:
                pass  # run may finish between polls
            time.sleep(0.05)

    def watch(coordinator):
        assert coordinator.metrics_address is not None
        thread = threading.Thread(
            target=poll, args=(coordinator.metrics_address,), daemon=True
        )
        pollers.append(thread)
        thread.start()

    with obs.capture():
        result, _, errors = _run_distributed(
            pipeline,
            fields,
            expect_workers=2,
            chaos_specs={0: "slow@*:all=0.25", 1: "slow@*:all=0.25"},
            metrics_port=0,
            on_coordinator=watch,
        )
    stop.set()
    for thread in pollers:
        thread.join(timeout=5.0)
    assert errors == []
    np.testing.assert_array_equal(result.outputs, serial.outputs)

    assert statuses, "poller never reached /status"
    assert any(s["workers_connected"] == 2 for s in statuses)
    assert any(s["leases_active"] >= 1 for s in statuses)
    # the lease table exposes per-chunk state while chunks are leased
    leased = [
        c for s in statuses for c in s["chunks"] if c["state"] == "leased"
    ]
    assert leased and all(c["owner"] in ("w0", "w1") for c in leased)
    assert any("distrib_workers_connected 2" in body for body in metric_bodies)
    assert any("distrib_chunk_seconds" in body for body in metric_bodies)


def test_coordinator_endpoints_without_workers():
    """Raw endpoint contract: a freshly started coordinator answers
    /status, /metrics and /healthz before any worker joins."""
    manifest = {
        "fingerprint": {"codec": "sz"},
        "chunk_digests": [digest_array(np.zeros((2, 2), dtype=np.float32))],
    }
    config = DistribConfig(port=0, metrics_port=0, worker_wait=5.0)
    coordinator = ShardCoordinator(manifest, config=config)
    with obs.capture():
        coordinator.start()
        try:
            host, port = coordinator.metrics_address
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(f"{base}/status", timeout=5.0) as r:
                status = json.loads(r.read())
            assert status["workers_connected"] == 0
            assert status["chunks_total"] == 1
            assert status["chunks_pending"] == 1
            assert [c["state"] for c in status["chunks"]] == ["pending"]
            with urllib.request.urlopen(f"{base}/healthz", timeout=5.0) as r:
                assert r.read() == b"ok\n"
            with urllib.request.urlopen(f"{base}/metrics", timeout=5.0) as r:
                assert "text/plain" in r.headers["Content-Type"]
        finally:
            coordinator.request_drain()
            assert coordinator.serve()["outcome"] == "drained"


def test_cli_parses_telemetry_flags_and_trace_command():
    args = build_parser().parse_args(
        [
            "coordinate", "h2combustion", "--tolerance", "1e-2",
            "--chunk-size", "16",
            "--metrics-port", "9100", "--metrics-host", "0.0.0.0",
        ]
    )
    assert args.metrics_port == 9100
    assert args.metrics_host == "0.0.0.0"

    args = build_parser().parse_args(
        ["trace", "analyze", "t.jsonl", "--straggler-k", "3", "--json", "o.json"]
    )
    assert args.command == "trace" and args.trace_command == "analyze"
    assert args.file == "t.jsonl" and args.straggler_k == 3.0

    args = build_parser().parse_args(
        ["serve-metrics", "m.json", "--port", "9100", "--duration", "0.5"]
    )
    assert args.command == "serve-metrics" and args.duration == 0.5


def test_cli_trace_analyze_exit_codes(tmp_path):
    from repro.obs import Tracer

    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            pass
    clean = str(tmp_path / "clean.jsonl")
    tracer.export_jsonl(clean)
    out = str(tmp_path / "report.json")
    assert cli_main(["trace", "analyze", clean, "--json", out]) == 0
    report = json.loads(open(out).read())
    assert report["orphans"]["count"] == 0
    assert [p["name"] for p in report["critical_path"]] == ["root", "child"]

    orphaned = str(tmp_path / "orphaned.jsonl")
    shutil.copy(clean, orphaned)
    with open(orphaned, "a") as handle:
        handle.write(json.dumps({
            "span_id": "a" * 16, "parent_id": "b" * 16, "root": False,
            "name": "lost", "start_unix": 0.0, "duration_s": 0.1,
        }) + "\n")
    # orphaned spans flip the exit code: CI can assert a fully
    # stitched trace with nothing but `repro trace analyze`
    assert cli_main(["trace", "analyze", orphaned]) == 1
    assert cli_main(["trace", "analyze", str(tmp_path / "missing.jsonl")]) == 1


def test_cli_serve_metrics_serves_saved_export(tmp_path):
    with obs.capture() as (_, metrics):
        metrics.counter("events_total").inc(5)
        payload = metrics.to_json()
    path = str(tmp_path / "metrics.json")
    with open(path, "w") as handle:
        json.dump(payload, handle)

    results = {}

    def run():
        results["code"] = cli_main(
            ["serve-metrics", path, "--port", "0", "--duration", "1.0"]
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10.0)
    assert results.get("code") == 0
