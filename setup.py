"""Legacy setup shim: the environment has no `wheel` package, so editable
installs go through `setup.py develop` (pip --no-use-pep517)."""
from setuptools import find_packages, setup

setup(
    name="repro-pdtl",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    extras_require={
        # the optional compiled kernel tier (core/kernels_cffi.py, built
        # with the host C compiler on first use); without cffi or a compiler
        # the dispatch layer falls back to the always-available numpy tier
        # (see core/kernel_backend.py)
        "compiled": ["cffi"],
    },
)
