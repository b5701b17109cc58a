"""Tests for the benchmark workloads: trace shape, determinism, and
end-to-end completion on the simulated platform."""

import pytest

from repro import workloads
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.gpu.mem import CACHE_LINE_SIZE
from repro.workloads import (
    AES,
    BFS,
    FIR,
    Im2Col,
    KMeans,
    MatMul,
    StoreStorm,
    SUITE,
    WORKLOADS,
    make_workload,
    mix,
    resolve_workload,
    workload_spec,
)


def _trace(workload, wg=0, wf=0):
    return list(workload.kernel().program(wg, wf))


def _kinds(trace):
    return [op[0] for op in trace]


# ------------------------------------------------------------- generic
@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_default_constructible(name):
    wl = make_workload(name, full_scale=True)
    k = wl.kernel()
    assert k.num_workgroups > 0
    assert k.wavefronts_per_wg > 0
    assert wl.input_bytes() >= 0
    assert wl.output_bytes() >= 0


@pytest.mark.parametrize("name", sorted(SUITE))
def test_traces_are_deterministic(name):
    wl_a = make_workload(name, full_scale=True)
    wl_b = make_workload(name, full_scale=True)
    assert _trace(wl_a, 1, 1) == _trace(wl_b, 1, 1)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_traces_contain_valid_ops(name):
    wl = make_workload(name)
    for wg, wf in [(0, 0), (1, 2)]:
        for op in wl.kernel().program(wg, wf):
            assert op[0] in ("load", "store", "sload", "compute")
            if op[0] == "compute":
                assert op[1] > 0
            else:
                assert op[1] >= 0      # address
                assert op[2] > 0        # size


# ------------------------------------------------------------- the table
def test_the_table_names_the_suite_plus_storestorm():
    assert set(SUITE) < set(WORKLOADS)
    assert set(WORKLOADS) - set(SUITE) == {"storestorm"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_name_builds_its_class_and_crosses_the_wire(name):
    wl = make_workload(name)
    assert wl.name == name
    assert getattr(workloads, type(wl).__name__) is type(wl)  # exported
    spec = workload_spec(wl)
    assert spec["name"] == name
    assert resolve_workload(spec) == wl
    assert make_workload(name) is not wl  # a fresh instance per call


def test_scaled_sizes_are_plain_overrides():
    assert make_workload("im2col") == Im2Col.scaled(batch=16)
    assert make_workload("fir") == FIR(num_samples=8192)
    assert make_workload("fir", {"num_taps": 4}) == FIR(num_samples=8192,
                                                        num_taps=4)
    assert make_workload("fir", full_scale=True) == FIR()


def test_the_table_refuses_unknown_names_and_parameters():
    with pytest.raises(ValueError, match="unknown workload 'doom'"):
        make_workload("doom")
    with pytest.raises(ValueError, match=r"unknown fir parameter\(s\)"):
        make_workload("fir", {"bogus_knob": 3})
    with pytest.raises(ValueError, match="not a registered workload"):
        workload_spec(object())


def test_mix_is_deterministic_and_spreads():
    assert mix(1, 2) == mix(1, 2)
    values = {mix(i) % 1024 for i in range(256)}
    assert len(values) > 128  # decent spread


# ------------------------------------------------------------- per-workload
def test_fir_is_streaming():
    fir = FIR(num_samples=1024)
    trace = _trace(fir)
    loads = [op for op in trace if op[0] == "load"]
    # Sequential line-sized reads dominate.
    line_loads = [op for op in loads if op[2] == CACHE_LINE_SIZE]
    assert len(line_loads) >= len(loads) // 2
    stores = [op for op in trace if op[0] == "store"]
    addrs = [op[1] for op in stores]
    assert addrs == sorted(addrs)  # in-order output stream


def test_fir_covers_all_samples():
    fir = FIR(num_samples=4096, wavefronts_per_wg=4,
              elements_per_wavefront=64)
    assert fir.num_workgroups * 4 * 64 >= 4096


def test_im2col_gathers_are_strided():
    wl = Im2Col.scaled(batch=4)
    trace = _trace(wl)
    loads = [op for op in trace if op[0] == "load"]
    # Window rows are kernel_size words wide.
    assert all(op[2] == wl.kernel_size * 4 for op in loads)
    # Consecutive window-row reads are image-row strided.
    deltas = {loads[i + 1][1] - loads[i][1]
              for i in range(min(len(loads), wl.kernel_size) - 1)}
    assert wl.image_width * 4 in deltas


def test_im2col_paper_case_study_parameters():
    wl = Im2Col.paper_case_study()
    assert (wl.image_width, wl.image_height, wl.channels, wl.batch) \
        == (24, 24, 6, 640)
    assert wl.out_cols == 22 * 22


def test_matmul_b_reads_are_column_strided():
    wl = MatMul(n=64, tile=16)
    b_base = 64 * 64 * 4
    trace = _trace(wl)
    b_loads = [op for op in trace
               if op[0] == "load" and op[1] >= b_base]
    assert b_loads
    deltas = [b_loads[i + 1][1] - b_loads[i][1]
              for i in range(min(3, len(b_loads) - 1))]
    assert any(d >= 64 * 4 for d in deltas)  # stride >= full row


def test_matmul_rejects_bad_tile():
    with pytest.raises(ValueError):
        MatMul(n=100, tile=16)


def test_kmeans_centroids_are_hot_scalar_traffic():
    wl = KMeans(num_points=256)
    trace = _trace(wl)
    centroid_base = wl.num_points * wl.num_features * 4
    hot_touches = [op for op in trace
                   if op[0] == "sload" and op[1] == centroid_base]
    assert len(hot_touches) > 1  # shared table, touched repeatedly


def test_bfs_neighbour_reads_are_scattered():
    wl = BFS(num_vertices=4096)
    trace = _trace(wl)
    word_loads = [op[1] for op in trace
                  if op[0] == "load" and op[2] == 4]
    assert len(word_loads) > 4
    assert word_loads != sorted(word_loads)  # not sequential


def test_aes_is_compute_heavy():
    wl = AES(num_blocks=256)
    trace = _trace(wl)
    compute = sum(op[1] for op in trace if op[0] == "compute")
    mem_ops = sum(1 for op in trace if op[0] != "compute")
    assert compute > mem_ops  # cycles dominated by compute


@pytest.mark.parametrize("cls,kwargs", [
    (FIR, {"num_samples": 0}),
    (Im2Col, {"batch": 0}),
    (KMeans, {"num_points": 0}),
    (BFS, {"num_vertices": 0}),
    (AES, {"num_blocks": 0}),
])
def test_invalid_sizes_rejected(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)


# ------------------------------------------------------------- end-to-end
@pytest.mark.parametrize("name", ["fir", "kmeans", "matmul"])
def test_small_suite_completes_on_platform(name):
    wl = make_workload(name)
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    run = wl.enqueue(platform.driver)
    assert platform.run()
    assert run.done
    assert run.kernels[0].completed == run.kernels[0].total


def test_enqueue_includes_copies():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    wl = FIR(num_samples=1024)
    run = wl.enqueue(platform.driver)
    assert len(run.copies) == 2
    assert platform.run()
    assert all(c.done for c in run.copies)


def test_storestorm_has_trigger_config():
    cfg = StoreStorm.trigger_config(buggy=True)
    assert cfg.l2_write_buffer_bug
    cfg2 = StoreStorm.trigger_config(buggy=False)
    assert not cfg2.l2_write_buffer_bug
