"""Direct unit tests for the Grid-in-a-Box substrates."""

import pytest

from repro.apps.giab.jobs import JobSpec, JobState, ProcessSpawner
from repro.apps.giab.storage import FileSystemError, SimulatedFileSystem
from repro.sim import CostModel, Network
from repro.xmllib import parse_xml, serialize


@pytest.fixture()
def net():
    return Network(CostModel())


class TestJobSpec:
    def test_xml_roundtrip(self):
        spec = JobSpec("blast", ("db", "-v"), 1234.5, 2, ("out.txt", "log"))
        again = JobSpec.from_xml(parse_xml(serialize(spec.to_xml())))
        assert again == spec

    def test_defaults(self):
        spec = JobSpec.from_xml(parse_xml("<Job><Command>x</Command></Job>"))
        assert spec.run_time_ms == 100.0
        assert spec.exit_code == 0
        assert spec.output_files == ()

    def test_missing_command_rejected(self):
        with pytest.raises(ValueError, match="no Command"):
            JobSpec.from_xml(parse_xml("<Job/>"))


class TestProcessSpawner:
    def test_spawn_runs_then_exits(self, net):
        spawner = ProcessSpawner(net)
        exits = []
        handle = spawner.spawn(JobSpec("sort", (), 500.0, 3), "/w", on_exit=exits.append)
        assert handle.state is JobState.RUNNING
        net.clock.charge(499)
        assert handle.state is JobState.RUNNING
        net.clock.charge(2)
        assert handle.state is JobState.EXITED
        assert handle.exit_code == 3
        assert exits == [handle]

    def test_spawn_charges_cost(self, net):
        spawner = ProcessSpawner(net)
        t0 = net.clock.now
        spawner.spawn(JobSpec("x"), "/w")
        assert net.clock.now - t0 == pytest.approx(net.costs.process_spawn)

    def test_running_time_tracks_clock(self, net):
        spawner = ProcessSpawner(net)
        handle = spawner.spawn(JobSpec("x", (), 1000.0), "/w")
        start = net.clock.now
        net.clock.charge(300)
        assert handle.running_time(net.clock.now) == pytest.approx(300)
        net.clock.charge(1000)
        # After exit, running time freezes at the exit instant.
        assert handle.running_time(net.clock.now) == pytest.approx(1000.0)

    def test_kill_running(self, net):
        spawner = ProcessSpawner(net)
        exits = []
        handle = spawner.spawn(JobSpec("x", (), 1000.0), "/w", on_exit=exits.append)
        assert spawner.kill(handle.pid)
        assert handle.state is JobState.KILLED
        assert handle.exit_code == -9
        net.clock.charge(2000)
        assert exits == []  # the exit timer was cancelled

    def test_kill_finished_returns_false(self, net):
        spawner = ProcessSpawner(net)
        handle = spawner.spawn(JobSpec("x", (), 10.0), "/w")
        net.clock.charge(20)
        assert not spawner.kill(handle.pid)

    def test_kill_unknown_pid(self, net):
        assert not ProcessSpawner(net).kill(4242)

    def test_reap_finished(self, net):
        spawner = ProcessSpawner(net)
        handle = spawner.spawn(JobSpec("x", (), 10.0), "/w")
        net.clock.charge(20)
        spawner.reap(handle.pid)
        assert spawner.get(handle.pid) is None

    def test_reap_running_refused(self, net):
        spawner = ProcessSpawner(net)
        handle = spawner.spawn(JobSpec("x", (), 1000.0), "/w")
        with pytest.raises(RuntimeError, match="running"):
            spawner.reap(handle.pid)
        assert spawner.get(handle.pid) is not None

    def test_pids_unique(self, net):
        spawner = ProcessSpawner(net)
        pids = {spawner.spawn(JobSpec("x", (), 1.0), "/w").pid for _ in range(10)}
        assert len(pids) == 10


class TestSimulatedFileSystem:
    def test_mkdir_write_read_delete(self, net):
        fs = SimulatedFileSystem(net)
        fs.mkdir("/d")
        fs.write("/d", "f", "content")
        assert fs.read("/d", "f") == "content"
        assert fs.exists("/d", "f")
        fs.delete("/d", "f")
        assert not fs.exists("/d", "f")

    def test_mkdir_twice_fails(self, net):
        fs = SimulatedFileSystem(net)
        fs.mkdir("/d")
        with pytest.raises(FileSystemError, match="exists"):
            fs.mkdir("/d")

    def test_missing_paths_fail(self, net):
        fs = SimulatedFileSystem(net)
        with pytest.raises(FileSystemError):
            fs.write("/nope", "f", "x")
        with pytest.raises(FileSystemError):
            fs.read("/nope", "f")
        with pytest.raises(FileSystemError):
            fs.listdir("/nope")
        with pytest.raises(FileSystemError):
            fs.rmdir("/nope")
        with pytest.raises(FileSystemError):
            fs.delete("/nope", "f")

    def test_rmdir_removes_contents(self, net):
        fs = SimulatedFileSystem(net)
        fs.mkdir("/d")
        fs.write("/d", "a", "1")
        fs.write("/d", "b", "2")
        fs.rmdir("/d")
        assert not fs.exists_dir("/d")

    def test_listdir_sorted(self, net):
        fs = SimulatedFileSystem(net)
        fs.mkdir("/d")
        for name in ("zeta", "alpha", "mid"):
            fs.write("/d", name, "x")
        assert fs.listdir("/d") == ["alpha", "mid", "zeta"]

    def test_costs_scale_with_content(self, net):
        fs = SimulatedFileSystem(net)
        fs.mkdir("/d")
        t0 = net.clock.now
        fs.write("/d", "small", "x" * 1024)
        small = net.clock.now - t0
        t1 = net.clock.now
        fs.write("/d", "large", "x" * 102400)
        large = net.clock.now - t1
        assert large > 50 * small


class TestWireLog:
    def test_disabled_by_default(self):
        # Messages are logged only inside a begin/end bracket; outside
        # one the recorder keeps no entries anywhere.
        from repro.apps.counter import CounterScenario, build_wsrf_rig

        rig = build_wsrf_rig(CounterScenario())
        metrics = rig.deployment.network.metrics
        rig.client.create(0)
        assert metrics.total_messages > 0
        lists = [value for value in vars(metrics).values() if isinstance(value, list)]
        assert lists == [[]]  # only the (empty) open-span stack

    def test_logs_requests_responses_and_notifies(self):
        from repro.apps.counter import CounterScenario, build_wsrf_rig

        rig = build_wsrf_rig(CounterScenario())
        network = rig.deployment.network
        trace = network.metrics.begin("flow", network.clock.now)
        counter = rig.client.create(0)
        rig.client.subscribe(counter, rig.consumer)
        rig.client.set(counter, 1)
        network.metrics.end(network.clock.now)
        kinds = {entry.kind for entry in trace.wire_log}
        assert kinds == {"request", "response", "notify"}
        requests = [e for e in trace.wire_log if e.kind == "request"]
        assert all(e.source == "opteron1" for e in requests)  # co-located client
        assert all(e.n_bytes > 0 for e in trace.wire_log)

    def test_entries_time_ordered(self):
        from repro.apps.counter import CounterScenario, build_wsrf_rig
        from repro.bench.runner import measure_virtual

        rig = build_wsrf_rig(CounterScenario())
        counter = rig.client.create(0)
        trace = measure_virtual(rig.deployment, "Get", lambda: rig.client.get(counter))
        times = [entry.at for entry in trace.wire_log]
        assert len(times) == 2
        assert times == sorted(times)
