"""Machine presets for the paper's experimental platforms (Section 4).

Parameters are period-plausible hardware numbers (2001/2002 era) chosen so
the *mechanisms* the paper identifies are present; EXPERIMENTS.md records
them next to each figure.  Nothing here is fitted to individual data points
-- each platform is a handful of physical constants.

* :func:`origin2000` -- NCSA SGI Origin2000: 48 R10k processors, ccNUMA
  (sub-microsecond latency, high bisection), XFS on a striped scratch
  volume.  Parallel I/O helps because many processes engage many disks,
  while one process is limited by its own I/O path.
* :func:`ibm_sp2` -- SDSC IBM SP (Power3 SMP high nodes): 8-way SMP nodes
  on the SP switch; GPFS with large fixed stripes, distributed write
  tokens, and a per-node I/O request queue (the paper's SMP contention).
* :func:`chiba_city` -- ANL Chiba City Linux cluster: 2x500 MHz PIII
  nodes, **fast Ethernet** through an oversubscribed switch, PVFS with 8
  I/O nodes.
* :func:`chiba_city_local` -- same nodes, but each process does I/O to its
  node-local disk through the PVFS interface (the paper's 4th experiment).
* :func:`lustre` -- a post-paper what-if: Linux cluster on gigabit
  Ethernet with a Lustre-like volume (16 OSTs, single MDS, per-file
  stripe layouts tunable through the MPI-IO striping hints).
"""

from __future__ import annotations

from .machine import Machine
from .network import CCNumaNetwork, SwitchedNetwork

# NOTE: repro.pfs is imported inside each factory, not at module level:
# pfs.striped itself imports repro.topology for the network models, so a
# module-level import here would close an import cycle whose outcome
# depends on which package happens to load first.

__all__ = [
    "origin2000",
    "ibm_sp2",
    "chiba_city",
    "chiba_city_local",
    "lustre",
    "PRESETS",
]

KB = 1024
MB = 1024 * 1024


def origin2000(nprocs: int = 32) -> Machine:
    """SGI Origin2000 with XFS (Figures 6 and 10)."""
    from ..pfs.striped import StripedServerFS

    net = CCNumaNetwork(nnodes=nprocs, latency=1e-6, bandwidth=600 * MB)
    machine = Machine(
        name="SGI-Origin2000/XFS",
        nprocs=nprocs,
        procs_per_node=1,
        network=net,
        cpu_flops=500e6,
        memcpy_bandwidth=300 * MB,
    )
    fs = StripedServerFS(
        "xfs",
        nservers=16,  # striped scratch volume (1290 GB of 2002-era disks)
        stripe_size=1 * MB,
        disk_bandwidth=25 * MB,
        seek_time=2e-3,  # RAID controller cache + elevator absorb most seeks
        request_cpu_time=0.2e-3,
        server_net_bandwidth=200 * MB,  # XBOW/FC back-end
        net_latency=30e-6,
        metadata_time=0.5e-3,
        cache_bytes_per_server=8 * MB,
        client_network=net,
        client_channel_bandwidth=80 * MB,  # single-process I/O path
    )
    return machine.attach_fs(fs)


def ibm_sp2(nprocs: int = 64, procs_per_node: int = 8) -> Machine:
    """IBM SP with GPFS (Figure 7)."""
    from ..pfs.striped import StripedServerFS

    nnodes = (nprocs + procs_per_node - 1) // procs_per_node
    net = SwitchedNetwork(
        nnodes=nnodes, latency=20e-6, bandwidth=130 * MB, name="sp-switch"
    )
    machine = Machine(
        name="IBM-SP/GPFS",
        nprocs=nprocs,
        procs_per_node=procs_per_node,
        network=net,
        cpu_flops=1500e6,  # 375 MHz Power3, 4 flops/cycle peak
        memcpy_bandwidth=400 * MB,
    )
    fs = StripedServerFS(
        "gpfs",
        nservers=12,  # VSD servers
        stripe_size=256 * KB,  # GPFS's "very large, fixed striping size"
        disk_bandwidth=30 * MB,
        seek_time=8e-3,
        request_cpu_time=0.5e-3,
        server_net_bandwidth=130 * MB,
        net_latency=40e-6,
        metadata_time=1e-3,
        cache_bytes_per_server=32 * MB,
        client_network=net,
        client_channel_bandwidth=60 * MB,
        write_token_time=10e-3,  # token revocation round-trip + flush
        token_granularity="file",  # coarse initial whole-range grants
        tokens_on_read=True,  # reading another node's dirty data flushes it
        stripe_aligned_io=True,  # small reads cost a whole GPFS block
        smp_io_queue_time=1.5e-3,  # per-request VSD client service, per node
    )
    return machine.attach_fs(fs)


def chiba_city(nprocs: int = 8) -> Machine:
    """ANL Chiba City: PVFS over fast Ethernet (Figure 8).

    8 compute nodes (one process each, as in the paper's runs) and 8 PVFS
    I/O nodes, all on 100 Mb/s Ethernet behind an oversubscribed switch.
    """
    from ..pfs.striped import StripedServerFS

    net = SwitchedNetwork(
        nnodes=nprocs,
        latency=120e-6,
        bandwidth=11.5 * MB,  # 100 Mb/s minus TCP/IP overhead
        fabric_bandwidth=20 * MB,  # oversubscribed backplane
        name="fast-ethernet",
    )
    machine = Machine(
        name="ChibaCity/PVFS",
        nprocs=nprocs,
        procs_per_node=1,
        network=net,
        cpu_flops=500e6,
        memcpy_bandwidth=250 * MB,
    )
    fs = StripedServerFS(
        "pvfs",
        nservers=8,
        stripe_size=64 * KB,
        disk_bandwidth=20 * MB,
        seek_time=10e-3,
        request_cpu_time=1.5e-3,  # user-space iod per-request processing
        server_net_bandwidth=11.5 * MB,  # I/O nodes on the same Ethernet
        net_latency=120e-6,
        metadata_time=2e-3,
        cache_bytes_per_server=16 * MB,  # Linux buffer cache on I/O nodes
        client_network=net,
    )
    return machine.attach_fs(fs)


def chiba_city_local(nprocs: int = 8) -> Machine:
    """Chiba City with node-local disks via the PVFS interface (Figure 9)."""
    from ..pfs.localfs import LocalDiskFS

    net = SwitchedNetwork(
        nnodes=nprocs,
        latency=120e-6,
        bandwidth=11.5 * MB,
        fabric_bandwidth=30 * MB,
        name="fast-ethernet",
    )
    machine = Machine(
        name="ChibaCity/local-disk",
        nprocs=nprocs,
        procs_per_node=1,
        network=net,
        cpu_flops=500e6,
        memcpy_bandwidth=250 * MB,
    )
    fs = LocalDiskFS(
        "pvfs-local",
        nnodes=nprocs,
        disk_bandwidth=20 * MB,
        seek_time=10e-3,
        request_cpu_time=0.3e-3,
        metadata_time=0.5e-3,
        cache_bytes_per_node=16 * MB,
        scatter_mode=True,
    )
    return machine.attach_fs(fs)


def lustre(nprocs: int = 8) -> Machine:
    """Linux cluster with a Lustre-like volume (post-paper what-if).

    16 OSTs behind gigabit Ethernet, a single MDS, and a conservative
    volume default of 4-wide 1 MiB stripes -- the layout a site ships
    before anybody runs ``lfs setstripe``.  Checkpoint files that widen
    their stripe count to all 16 OSTs (the ``striping_factor`` hint)
    engage 4x the spindles, which is the retune the AutoTuner proposes.
    """
    from ..pfs.lustre import LustreFS

    net = SwitchedNetwork(
        nnodes=nprocs,
        latency=60e-6,
        bandwidth=110 * MB,  # gigabit Ethernet minus TCP/IP overhead
        fabric_bandwidth=800 * MB,
        name="gig-ethernet",
    )
    machine = Machine(
        name="LinuxCluster/Lustre",
        nprocs=nprocs,
        procs_per_node=1,
        network=net,
        cpu_flops=2000e6,
        memcpy_bandwidth=800 * MB,
    )
    fs = LustreFS(
        "lustre",
        nosts=16,
        stripe_size=1 * MB,
        stripe_count=4,  # conservative volume default; tuning widens to 16
        disk_bandwidth=35 * MB,
        seek_time=8e-3,
        request_cpu_time=0.3e-3,
        server_net_bandwidth=110 * MB,
        net_latency=60e-6,
        ost_queue_time=0.8e-3,  # per-request OST service serialisation
        mds_open_time=2.5e-3,  # single MDS serves opens serially
        mds_per_file_time=0.4e-3,  # namespace scan cost per tracked file
        cache_bytes_per_ost=32 * MB,
        client_network=net,
        client_channel_bandwidth=90 * MB,
    )
    return machine.attach_fs(fs)


PRESETS = {
    "origin2000": origin2000,
    "ibm_sp2": ibm_sp2,
    "chiba_city": chiba_city,
    "chiba_city_local": chiba_city_local,
    "lustre": lustre,
}
