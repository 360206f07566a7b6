"""The benchmark's workloads: deployments, op streams and output checks.

Every workload runs a single benchmark process with simulated delays at
0 and a :class:`~repro.util.clock.ManualClock`, so no timer changes
datanode liveness or lease expiry mid-run. Clients are closed loops:
each sends its next operation only after the previous one returned.

* ``spotify``: embedded NDB (4 datanodes, replication 2), 1 namenode,
  3 HopsFS datanodes; the Table-1 op mix over a generated 1,000-file
  namespace. Reads hit the static namespace; every mutation stays in
  the client's scratch directory so no read ever misses.
* ``churn``: the same embedded stack; one create-write-rename-chmod-
  list-delete cycle repeated in a fresh directory.
* ``churn-unix``: the ``churn`` op stream with the DAL behind one
  ``ndb-server`` subprocess reached over AF_UNIX.

Each workload has one client. Two client threads in one process mostly
measured hand-offs of the interpreter lock: on ``spotify`` they cost
50% more CPU per op and 40% of the throughput of one client, and made
run-to-run spread several times wider.

Each timed operation is one call into :class:`~repro.hopsfs.client.DFSClient`,
or into the namenode for the write pipeline's ``add_block``,
``block_received`` and ``complete``; it is classed ``read``, ``write`` or
``subtree`` before it runs.
"""

from __future__ import annotations

import os
import random
import string
import time
from typing import Any, Callable, Optional

from repro.dal.ndb_driver import NDBDriver
from repro.hopsfs import HopsFSCluster, HopsFSConfig
from repro.hopsfs.fsck import Fsck
from repro.ndb import NDBConfig
from repro.util.clock import ManualClock
from repro.workload.namespace import NamespaceConfig, NamespaceModel
from repro.workload.spec import TABLE1_DIR_FRACTION, TABLE1_MIX

READ, WRITE, SUBTREE = "read", "write", "subtree"

#: NDB shape shared by every workload (the paper's replication degree)
NDB_DATANODES = 4
NDB_REPLICATION = 2
HOPSFS_DATANODES = 3

SPOTIFY_FILES = 1000
#: the Yahoo popularity statistic of §5.1.1: 3% of files take 80% of reads
HOT_FRACTION = 0.03
HOT_SHARE = 0.80
#: scratch area: flat files, and non-empty directories that the subtree
#: ops (chmod/chown/recursive delete of a directory) target
SCRATCH_FILES = 16
SCRATCH_DIRS = 4
SCRATCH_DIR_FILES = 6

#: churn cycle: files created and left open, then files fully written
CHURN_OPEN_FILES = 6
CHURN_WRITTEN_FILES = 2

#: Each workload's ``host_sensitivity`` is the exponent that turns the
#: host's slowdown, as the speed probe in run.py measures it, into the
#: workload's own: the mean of the slopes ``run.py --calibrate`` gave
#: over 40 s windows on a 2-vCPU x86 VM (spotify 0.857 and 0.846, seeds
#: 1-2; churn 0.42, 0.72, 0.61, 0.83 and churn-unix 0.66, 0.54, 0.54,
#: 0.50, seeds 1-4).

#: span dumps and the AF_UNIX socket, relative to the working directory
#: so the socket path stays under the AF_UNIX length limit wherever the
#: checkout lives
RUN_DIR = ".perfbench-run"

_NAME_ALPHABET = string.ascii_lowercase + string.digits


class OpFailed(Exception):
    """Raised inside an op stream when an earlier step of a compound op
    failed, so the rest of the compound op is skipped."""


class Recorder:
    """The client's counters and latency samples."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {READ: [], WRITE: [],
                                                SUBTREE: []}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []      # first few exception texts
        self.mismatches: list[str] = []  # wrong results seen inline
        #: called with the op number before each op while traced
        self.hook: Optional[Callable[[int], None]] = None

    def reset(self) -> None:
        self.__init__()

    def timed(self, kind: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Any:
        """Run one operation; record its latency or count its failure.

        Raises :class:`OpFailed` on failure so a compound op stops at
        the step that failed.
        """
        self.attempted += 1
        if self.hook is not None:
            self.hook(self.attempted)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            raise OpFailed() from exc
        self.samples[kind].append(time.perf_counter() - started)
        return result

    def mismatch(self, text: str) -> None:
        self.mismatches.append(text)


def _name(rng: random.Random, mean_length: int = 34) -> str:
    length = max(8, round(rng.gauss(mean_length, 6)))
    return "".join(rng.choice(_NAME_ALPHABET) for _ in range(length))


def _cluster(driver=None) -> HopsFSCluster:
    """1 namenode and 3 datanodes over ``driver`` (default: embedded NDB)."""
    if driver is None:
        driver = NDBDriver(config=NDBConfig(num_datanodes=NDB_DATANODES,
                                            replication=NDB_REPLICATION))
    return HopsFSCluster(num_namenodes=1, num_datanodes=HOPSFS_DATANODES,
                         config=HopsFSConfig(clock=ManualClock()),
                         driver=driver)


def _write_file(rec: Recorder, dfs, fs: HopsFSCluster, path: str) -> None:
    """create, add_block, block_received per replica, complete: each
    timed as its own write op, as the datanode pipeline issues them."""
    rec.timed(WRITE, dfs.create, path)
    _finish_file(rec, dfs, fs, path)


def _finish_file(rec: Recorder, dfs, fs: HopsFSCluster, path: str) -> None:
    # the single namenode serves the pipeline calls DFSClient keeps private
    nn = fs.namenodes[0]
    block = rec.timed(WRITE, nn.add_block, path, dfs.name)
    for dn_id in block.datanodes:
        fs.datanode(dn_id).store_block(block.block_id, b"x")
        rec.timed(WRITE, nn.block_received, dn_id, block.block_id, 1)
    if not rec.timed(WRITE, nn.complete, path, dfs.name):
        rec.mismatch(f"complete({path}) returned False")


class Deployment:
    """A built cluster plus whatever process backs its DAL."""

    def __init__(self, fs: HopsFSCluster, server=None,
                 supervisor=None) -> None:
        self.fs = fs
        self.namenode = fs.namenodes[0]
        self.server = server
        self._supervisor = supervisor

    @property
    def server_pid(self) -> Optional[int]:
        return self.server.pid if self.server is not None else None

    def close(self) -> None:
        close = getattr(self.fs.driver, "close", None)
        if close is not None:
            close()
        if self._supervisor is not None:
            self._supervisor.stop_all()
            self._supervisor = None


# -- spotify -----------------------------------------------------------------------------


class SpotifyStream:
    """Draws Table-1 ops; reads go to the static namespace, mutations to
    ``/scratch``."""

    def __init__(self, fs: HopsFSCluster, namespace: NamespaceModel,
                 seed: int) -> None:
        self.rec = Recorder()
        self.fs = fs
        self.dfs = fs.client(name="spotify", seed=seed)
        self.rng = random.Random(seed)
        self.namespace = namespace
        #: directory -> number of direct children, to check listings
        self.children: dict[str, int] = {}
        for path in namespace.iter_paths():
            parent = path.rsplit("/", 1)[0]
            self.children[parent] = self.children.get(parent, 0) + 1
        n_hot = max(1, int(len(namespace.files) * HOT_FRACTION))
        self.hot = namespace.files[:n_hot]
        self.cold = namespace.files[n_hot:]
        self.ops = [op for op, w in TABLE1_MIX.items() if w > 0]
        self.weights = [TABLE1_MIX[op] for op in self.ops]
        self.root = "/scratch"
        self.files: list[str] = []   # closed scratch files
        self.open: list[str] = []    # created, no block yet
        self.dirs: list[str] = []    # non-empty scratch directories
        self.empty_dirs: list[str] = []
        self.counter = 0

    def populate(self) -> None:
        for _ in range(SCRATCH_FILES):
            path = self._new_path("f")
            self.dfs.write_file(path, b"x")
            self.files.append(path)
        for _ in range(SCRATCH_DIRS):
            directory = self._new_path("d")
            for j in range(SCRATCH_DIR_FILES):
                self.dfs.write_file(f"{directory}/f{j}", b"x")
            self.dirs.append(directory)

    def _new_path(self, prefix: str) -> str:
        self.counter += 1
        return f"{self.root}/{prefix}{self.counter}"

    def _file(self) -> str:
        if self.rng.random() < HOT_SHARE:
            return self.rng.choice(self.hot)
        return self.rng.choice(self.cold)

    def _dir(self) -> str:
        return self.rng.choice(self.namespace.directories)

    def _on_dir(self, op: str) -> bool:
        return self.rng.random() < TABLE1_DIR_FRACTION.get(op, 0.0)

    def step(self) -> None:
        op = self.rng.choices(self.ops, weights=self.weights)[0]
        try:
            getattr(self, "op_" + op)()
        except OpFailed:
            pass

    # reads: static namespace, results checked inline

    def op_read(self) -> None:
        path = self._file()
        located = self.rec.timed(READ, self.dfs.get_block_locations, path)
        if len(located.blocks) != 1 or not located.blocks[0].datanodes:
            self.rec.mismatch(f"read {path}: {located.blocks!r}")

    def op_stat(self) -> None:
        on_dir = self._on_dir("stat")
        path = self._dir() if on_dir else self._file()
        status = self.rec.timed(READ, self.dfs.stat, path)
        if status is None or status.is_dir != on_dir:
            self.rec.mismatch(f"stat {path}: {status!r}")

    def op_ls(self) -> None:
        on_dir = self._on_dir("ls")
        path = self._dir() if on_dir else self._file()
        listing = self.rec.timed(READ, self.dfs.list_status, path)
        expected = self.children.get(path, 0) if on_dir else 1
        if len(listing.entries) != expected:
            self.rec.mismatch(f"ls {path}: {len(listing.entries)} entries, "
                              f"expected {expected}")

    def op_content_summary(self) -> None:
        path = self._dir()
        summary = self.rec.timed(READ, self.dfs.content_summary, path)
        expected = sum(1 for f in self.namespace.files
                       if f.startswith(path + "/"))
        if summary.file_count != expected:
            self.rec.mismatch(f"content_summary {path}: "
                              f"{summary.file_count} files, "
                              f"expected {expected}")

    # mutations: scratch area only

    def op_create(self) -> None:
        path = self._new_path("n")
        self.rec.timed(WRITE, self.dfs.create, path)
        self.open.append(path)

    def op_add_block(self) -> None:
        if not self.open:
            self.op_create()
        path = self.open[0]
        _finish_file(self.rec, self.dfs, self.fs, path)
        self.files.append(self.open.pop(0))

    def op_mkdirs(self) -> None:
        path = self._new_path("e")
        self.rec.timed(WRITE, self.dfs.mkdirs, path)
        self.empty_dirs.append(path)

    def op_delete(self) -> None:
        # keep one directory for chmod/chown to target
        if self._on_dir("delete") and len(self.dirs) > 1:
            pool, kind = self.dirs, SUBTREE
        elif self.files:
            pool, kind = self.files, WRITE
        else:
            return
        i = self.rng.randrange(len(pool))
        if not self.rec.timed(kind, self.dfs.delete, pool[i],
                              recursive=kind == SUBTREE):
            self.rec.mismatch(f"delete {pool[i]} returned False")
        pool.pop(i)

    def op_rename(self) -> None:
        if self._on_dir("rename"):
            pool, kind = self.dirs, SUBTREE
        else:
            pool, kind = self.files, WRITE
        if not pool:
            return
        i = self.rng.randrange(len(pool))
        dst = self._new_path("r")
        if not self.rec.timed(kind, self.dfs.rename, pool[i], dst):
            self.rec.mismatch(f"rename {pool[i]} returned False")
        pool[i] = dst

    def op_set_permission(self) -> None:
        if self._on_dir("set_permission"):
            self.rec.timed(SUBTREE, self.dfs.set_permission,
                           self.rng.choice(self.dirs), 0o750)
        elif self.files:
            self.rec.timed(WRITE, self.dfs.set_permission,
                           self.rng.choice(self.files), 0o640)

    def op_set_owner(self) -> None:
        # Table 1: every set_owner targets a directory
        self.rec.timed(SUBTREE, self.dfs.set_owner,
                       self.rng.choice(self.dirs), "wl-user", "wl-group")

    def op_set_replication(self) -> None:
        if self.files:
            self.rec.timed(WRITE, self.dfs.set_replication,
                           self.rng.choice(self.files),
                           self.rng.choice((2, 3)))

    def expected_names(self) -> set[str]:
        paths = self.files + self.open + self.dirs + self.empty_dirs
        return {p.rsplit("/", 1)[1] for p in paths}


class Spotify:
    name = "spotify"
    host_sensitivity = 0.85

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.ns_seed = rng.randrange(2**31)
        self.op_seed = rng.randrange(2**31)
        self.namespace = NamespaceModel.generate(
            SPOTIFY_FILES, NamespaceConfig(seed=self.ns_seed))

    def build(self) -> tuple[Deployment, SpotifyStream]:
        fs = _cluster()
        dfs = fs.client(name="populate")
        for directory in self.namespace.directories:
            dfs.mkdirs(directory)
        for path in self.namespace.files:
            dfs.write_file(path, b"x")
        stream = SpotifyStream(fs, self.namespace, self.op_seed)
        stream.populate()
        return Deployment(fs), stream

    def verify(self, deployment: Deployment,
               stream: SpotifyStream) -> list[str]:
        problems: list[str] = []
        dfs = deployment.fs.client(name="verify")
        rng = random.Random(self.ns_seed)
        sample = stream.hot + rng.sample(stream.cold, 50)
        for path in sample:
            status = dfs.stat(path)
            if status is None or status.is_dir:
                problems.append(f"static file {path}: stat {status!r}")
                continue
            located = dfs.get_block_locations(path)
            if len(located.blocks) != 1 or not located.blocks[0].datanodes:
                problems.append(f"static file {path}: {located.blocks!r}")
        found = set(dfs.list_status(stream.root).names())
        expected = stream.expected_names()
        if found != expected:
            problems.append(
                f"{stream.root} does not list what the client made: "
                f"extra {sorted(found - expected)[:3]}, "
                f"missing {sorted(expected - found)[:3]}")
        problems.extend(_fsck(deployment))
        return problems


# -- churn -------------------------------------------------------------------------------


class ChurnStream:
    """Repeats the churn cycle, each time in a fresh ``/churn/<name>``."""

    def __init__(self, fs: HopsFSCluster, seed: int) -> None:
        self.rec = Recorder()
        self.fs = fs
        self.dfs = fs.client(name="churn", seed=seed)
        self.rng = random.Random(seed)

    def step(self) -> None:
        rng, dfs, rec = self.rng, self.dfs, self.rec
        directory = f"/churn/{_name(rng)}"
        names = [_name(rng) for _ in range(CHURN_OPEN_FILES
                                          + CHURN_WRITTEN_FILES)]
        paths = [f"{directory}/{n}" for n in names]
        try:
            rec.timed(WRITE, dfs.mkdirs, directory)
            for path in paths[:CHURN_OPEN_FILES]:
                rec.timed(WRITE, dfs.create, path)
            written = paths[CHURN_OPEN_FILES:]
            for path in written:
                _write_file(rec, dfs, self.fs, path)
            renamed = f"{paths[0]}.r"
            if not rec.timed(WRITE, dfs.rename, paths[0], renamed):
                rec.mismatch(f"rename {paths[0]} returned False")
            rec.timed(WRITE, dfs.set_permission,
                      rng.choice(paths[1:]), 0o600)
            listing = rec.timed(READ, dfs.list_status, directory)
            if len(listing.entries) != len(paths):
                rec.mismatch(f"ls {directory}: {len(listing.entries)} "
                             f"entries, expected {len(paths)}")
            # stat every entry listed, as ``ls -l`` does: with one stat
            # per ls, the read p50 fell on the edge between the two ops
            for name in listing.names():
                path = f"{directory}/{name}"
                status = rec.timed(READ, dfs.stat, path)
                size = 1 if path in written else 0
                if status is None or status.is_dir or status.size != size:
                    rec.mismatch(f"stat {path}: {status!r}")
            rec.timed(SUBTREE, dfs.delete, directory, recursive=True)
        except OpFailed:
            pass


class Churn:
    name = "churn"
    host_sensitivity = 0.65

    def __init__(self, seed: int) -> None:
        self.op_seed = random.Random(seed).randrange(2**31)

    def _driver(self):
        """(DAL driver, server handle, supervisor); embedded: no process."""
        return None, None, None

    def build(self) -> tuple[Deployment, ChurnStream]:
        driver, server, supervisor = self._driver()
        try:
            fs = _cluster(driver)
            fs.client(name="setup").mkdirs("/churn")
        except Exception:
            if supervisor is not None:
                supervisor.stop_all()
            raise
        return (Deployment(fs, server, supervisor),
                ChurnStream(fs, self.op_seed))

    def verify(self, deployment: Deployment,
               stream: ChurnStream) -> list[str]:
        problems = []
        left = deployment.fs.client(name="verify").list_status("/churn")
        if left.entries:
            problems.append(f"churn cycles left {len(left.entries)} "
                            f"directories behind: {left.names()[:3]}")
        problems.extend(_fsck(deployment))
        return problems


class ChurnUnix(Churn):
    """``churn`` with the DAL in an ``ndb-server`` process over AF_UNIX."""

    name = "churn-unix"
    host_sensitivity = 0.55

    def _driver(self):
        from repro.dal import RemoteDriver
        from repro.rpc.supervisor import Supervisor

        os.makedirs(RUN_DIR, exist_ok=True)
        sock = os.path.join(RUN_DIR, f"ndb-{os.getpid()}.sock")
        supervisor = Supervisor(ready_timeout=60.0)
        try:
            server = supervisor.spawn(
                "ndb0", unix=sock, datanodes=NDB_DATANODES,
                replication=NDB_REPLICATION)
            driver = RemoteDriver(unix_path=server.unix_path, timeout=60.0)
        except Exception:
            supervisor.stop_all()
            raise
        return driver, server, supervisor


def _fsck(deployment: Deployment) -> list[str]:
    report = Fsck(deployment.namenode).run()
    if report.healthy:
        return []
    return [f"fsck: {issue.check} {issue.table} {issue.key} {issue.detail}"
            for issue in report.issues[:5]]


WORKLOADS = {cls.name: cls for cls in (Spotify, Churn, ChurnUnix)}
