"""Unit tests for the numpy|C kernel-tier switch.

The contract under test: selection (env var, explicit activation, a
``use`` block), whole-tier degradation (a failed build, a crashing kernel, a
missing kernel or one kernel that disagrees with numpy refuses the whole
C tier -- silently under ``auto``, with one RuntimeWarning under an
explicit ``cffi``), and one probe per process however often the tier is
toggled.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import kernel_backend, kernels, kernels_cffi
from repro.errors import ConfigurationError

_COMPILED_OK, _COMPILED_DETAIL = kernel_backend.compiled_available()
needs_c = pytest.mark.skipif(not _COMPILED_OK, reason=f"no C tier: {_COMPILED_DETAIL}")

#: the JIT tier that was removed; configs and environments naming it must
#: be refused like any other unknown tier
_RETIRED_TIER = "numba"

#: the C kernels that replace multi-pass numpy caller chains (no numpy twin)
_FUSED_KERNELS = (
    "mgt_block_scan",
    "mgt_chunk_scan",
    "truss_peel_level",
    "incidence_csr",
    "orient_range",
    "in_lists",
    "csr_violations",
)


@pytest.fixture(autouse=True)
def restore_dispatch_state():
    """Snapshot and restore every module-level knob the tests poke."""
    saved = (
        kernel_backend._requested,
        kernel_backend._resolved,
        kernel_backend._probe,
        set(kernel_backend._warned),
        dict(kernels._ACTIVE_IMPLS),
        kernels._BACKEND_READY,
    )
    yield
    (
        kernel_backend._requested,
        kernel_backend._resolved,
        kernel_backend._probe,
        warned,
        impls,
        kernels._BACKEND_READY,
    ) = saved
    kernel_backend._warned.clear()
    kernel_backend._warned.update(warned)
    kernels._ACTIVE_IMPLS.clear()
    kernels._ACTIVE_IMPLS.update(impls)


def _fresh_probe(monkeypatch, build) -> list[int]:
    """Replace the C build with ``build``, forget the cached probe and any
    fallback warning already issued; returns a list that records each build."""
    calls: list[int] = []

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(kernels_cffi, "build_registry", counted)
    kernel_backend._probe = None
    kernel_backend._warned.discard("fallback:cffi")
    return calls


def _broken_build():
    raise ImportError("No module named 'cffi'")


def _reset_lazy_default() -> None:
    kernels._BACKEND_READY = False
    kernel_backend._requested = None
    kernel_backend._resolved = None


class TestSelection:
    def test_activate_numpy_clears_registry(self):
        assert kernel_backend.activate("numpy") == "numpy"
        assert kernels._ACTIVE_IMPLS == {}
        assert kernel_backend.active_backend() == "numpy"
        assert kernel_backend.fused("mgt_block_scan") is None

    @pytest.mark.parametrize("name", ["cython", _RETIRED_TIER])
    def test_activate_rejects_unknown_name(self, name):
        with pytest.raises(ConfigurationError):
            kernel_backend.activate(name)
        with pytest.raises(ConfigurationError):
            with kernel_backend.use(name):
                pass

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("KERNEL_BACKEND", "numpy")
        _reset_lazy_default()
        assert kernel_backend.initialize_default() == "numpy"

    @pytest.mark.parametrize("value", ["turbo", _RETIRED_TIER])
    def test_invalid_env_var_warns_and_uses_auto(self, monkeypatch, value):
        monkeypatch.setenv("KERNEL_BACKEND", value)
        _reset_lazy_default()
        kernel_backend._warned.discard(f"env:{value}")
        with pytest.warns(RuntimeWarning, match="KERNEL_BACKEND"):
            resolved = kernel_backend.initialize_default()
        assert kernel_backend._requested == "auto"
        assert resolved == ("cffi" if _COMPILED_OK else "numpy")

    def test_use_restores_previous_tier(self):
        before_request = kernel_backend._requested
        with kernel_backend.use("numpy") as active:
            assert active == "numpy"
            assert kernel_backend.active_backend() == "numpy"
        assert kernel_backend._requested == before_request


class TestWholeTierFallback:
    def test_failed_build_is_silent_under_auto(self, monkeypatch):
        _fresh_probe(monkeypatch, _broken_build)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_backend.activate("auto") == "numpy"
        assert kernels._ACTIVE_IMPLS == {}
        ok, detail = kernel_backend.compiled_available()
        assert not ok and "cffi" in detail

    def test_failed_build_warns_once_under_cffi(self, monkeypatch):
        _fresh_probe(monkeypatch, _broken_build)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert kernel_backend.activate("cffi") == "numpy"
            assert kernel_backend.activate("cffi") == "numpy"
            assert kernel_backend.activate("numpy") == "numpy"
            with kernel_backend.use("cffi") as active:
                assert active == "numpy"
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1
        assert "falling back to the numpy tier" in messages[0]
        assert kernels._ACTIVE_IMPLS == {}

    @needs_c
    def test_missing_kernel_refuses_the_tier(self, monkeypatch):
        registry = kernels_cffi.build_registry()
        del registry["edge_common_neighbors"]
        _fresh_probe(monkeypatch, lambda: registry)
        ok, detail = kernel_backend.compiled_available()
        assert not ok and "edge_common_neighbors" in detail
        assert kernel_backend.activate("auto") == "numpy"
        assert kernels._ACTIVE_IMPLS == {}

    @needs_c
    @pytest.mark.parametrize("kernel", ["triangle_range", "truss_peel_level"])
    def test_one_disagreeing_kernel_refuses_the_tier(self, monkeypatch, kernel):
        registry = kernels_cffi.build_registry()
        right = registry[kernel]

        def wrong(*args):
            got = right(*args)
            if isinstance(got, tuple):
                return (got[0] + 1,) + got[1:]
            return ~got

        _fresh_probe(monkeypatch, lambda: {**registry, kernel: wrong})
        ok, detail = kernel_backend.compiled_available()
        assert not ok and "disagrees" in detail and kernel in detail
        assert kernel_backend.activate("auto") == "numpy"
        # no partial tier: every other (correct) kernel is refused too
        assert kernels._ACTIVE_IMPLS == {}
        assert kernel_backend.fused("mgt_block_scan") is None

    @needs_c
    def test_self_check_runs_every_kernel(self):
        """A kernel kept or added without a self-check case would reach
        every caller unchecked: the check must call each registry entry."""
        registry = kernels_cffi.build_registry()
        called: set[str] = set()

        def recorded(name, kernel):
            def wrapper(*args):
                called.add(name)
                return kernel(*args)

            return wrapper

        kernel_backend._self_check(
            {name: recorded(name, kernel) for name, kernel in registry.items()}
        )
        assert called == set(registry)

    @needs_c
    def test_crashing_kernel_refuses_the_tier(self, monkeypatch):
        registry = kernels_cffi.build_registry()

        def crash(*args):
            raise RuntimeError("kernel exploded")

        _fresh_probe(monkeypatch, lambda: {**registry, "incidence_csr": crash})
        with pytest.warns(RuntimeWarning, match="kernel exploded"):
            assert kernel_backend.activate("cffi") == "numpy"
        assert kernels._ACTIVE_IMPLS == {}

    def test_probe_runs_once_per_process(self, monkeypatch):
        build = kernels_cffi.build_registry if _COMPILED_OK else _broken_build
        calls = _fresh_probe(monkeypatch, build)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(3):
                for name in ("cffi", "numpy", "auto"):
                    with kernel_backend.use(name):
                        kernel_backend.fused("mgt_block_scan")
                kernel_backend.compiled_available()
        assert calls == [1]


@needs_c
class TestCompiledTier:
    def test_compiled_available_names_the_tier(self):
        assert kernel_backend.compiled_available() == (True, "cffi")

    def test_activation_installs_every_kernel(self):
        assert kernel_backend.activate("cffi") == "cffi"
        expected = set(kernels.NUMPY_IMPLS) | set(_FUSED_KERNELS)
        assert set(kernels._ACTIVE_IMPLS) == expected
        assert len(expected) == 10
        for name in _FUSED_KERNELS:
            assert callable(kernel_backend.fused(name)), name

    def test_auto_resolves_to_cffi(self):
        assert kernel_backend.activate("auto") == "cffi"

    def test_warmup_reports_kernel_names(self):
        kernel_backend.activate("cffi")
        warmed = kernel_backend.warmup()
        assert "triangle_range" in warmed
        assert "edge_common_neighbors" in warmed
        assert "mgt_block_scan" in warmed

    def test_dispatch_counts_are_keyed_by_tier(self):
        before = kernel_backend.dispatch_counts()
        with kernel_backend.use("cffi"):
            kernel_backend.fused("mgt_block_scan")
        with kernel_backend.use("numpy"):
            kernel_backend.fused("mgt_block_scan")
        after = kernel_backend.dispatch_counts()
        for key in ("mgt_block_scan.cffi", "mgt_block_scan.numpy"):
            assert after[key] - before.get(key, 0) == 1

    def test_use_context_switches_and_restores(self):
        kernel_backend.activate("numpy")
        assert kernels._ACTIVE_IMPLS == {}
        with kernel_backend.use("cffi") as active:
            assert active == "cffi"
            assert kernels._ACTIVE_IMPLS
            indptr = np.array([0, 3, 5, 6, 6], dtype=np.int64)
            indices = np.array([1, 2, 3, 2, 3, 3], dtype=np.int64)
            assert kernels.count_cone_range(indptr, indices) == 4
        assert kernel_backend.active_backend() == "numpy"
        assert kernels._ACTIVE_IMPLS == {}
