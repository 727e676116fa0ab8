"""Concrete compiler profiles for both clusters.

Vectorization tables are calibrated so that (a) regular streaming loops
vectorize under every toolchain, (b) the vendor toolchains (Fujitsu with
``-Kfast`` on SVE, Intel with ``-xCORE-AVX512``) vectorize well across the
board, and (c) the GNU SVE back end of 2020/21 barely vectorizes irregular
application loops — the paper's stated cause of the 2-4x application gap
("we verified that the compiler could not leverage the SVE unit in several
cases, leaving the performance to be delivered by the scalar core").

Deployment failures come verbatim from Section V:

* Fujitsu 1.2.26b *hangs* compiling Alya's most complex Fortran files;
* Fujitsu errors out on NEMO;
* Gromacs' cmake step fails under Fujitsu, and GNU 8.3.1-sve does not meet
  Gromacs' minimum toolchain requirements (GNU 11.0.0 was used instead);
* OpenIFS *builds* under Fujitsu after small code changes but aborts at
  run time, which is modeled as a poisoned binary.
"""

from __future__ import annotations

from repro.toolchain.compiler import CompilerProfile, VectorizationResult as V
from repro.toolchain.kernels import KernelClass as K
from repro.util.errors import CompileError, CompileHang, RuntimeFailure

# ---------------------------------------------------------------------------
# Vectorization tables
# ---------------------------------------------------------------------------

_FUJITSU_SVE = {
    K.ASM_FMA: V(1.0, 0.995),
    K.STREAM: V(1.0, 0.90),
    K.DENSE_LINALG: V(0.98, 0.90),  # SSL2 / vendor HPL quality
    K.SPMV: V(0.50, 0.30),
    K.STENCIL: V(0.80, 0.50),
    K.FEM_ASSEMBLY: V(0.40, 0.30),
    K.KRYLOV: V(0.85, 0.50),
    K.MD_NONBONDED: V(0.50, 0.35),
    K.SPECTRAL: V(0.70, 0.45),
    K.SCALAR_PHYSICS: V(0.15, 0.20),
}

#: GNU's SVE back end circa 8.3.1: regular loops vectorize, everything with
#: indirection or branches stays scalar.
_GNU_SVE = {
    K.ASM_FMA: V(1.0, 0.99),
    K.STREAM: V(1.0, 0.80),
    K.DENSE_LINALG: V(0.50, 0.25),
    K.SPMV: V(0.10, 0.15),
    K.STENCIL: V(0.40, 0.25),
    K.FEM_ASSEMBLY: V(0.05, 0.15),
    K.KRYLOV: V(0.50, 0.30),
    K.MD_NONBONDED: V(0.45, 0.25),
    K.SPECTRAL: V(0.30, 0.25),
    K.SCALAR_PHYSICS: V(0.02, 0.10),
}

#: GNU 11 improved SVE slightly (still used mainly for Gromacs' own
#: ARM_SVE intrinsics layer, which raises MD_NONBONDED).
_GNU11_SVE = dict(_GNU_SVE)
_GNU11_SVE.update(
    {
        # Gromacs' hand-written ARM_SVE intrinsic layer vectorizes most of
        # the non-bonded inner loop even though the autovectorizer cannot
        # (calibrated against Fig. 12's 3.1x single-node gap).
        K.MD_NONBONDED: V(0.65, 0.32),
        K.STENCIL: V(0.45, 0.28),
        K.DENSE_LINALG: V(0.55, 0.28),
    }
)

#: Intel's AVX-512 vectorizer, mature since 2017.
_INTEL_AVX512 = {
    K.ASM_FMA: V(1.0, 0.99),
    K.STREAM: V(1.0, 0.85),
    K.DENSE_LINALG: V(0.98, 0.85),  # MKL quality
    K.SPMV: V(0.60, 0.25),
    K.STENCIL: V(0.85, 0.45),
    K.FEM_ASSEMBLY: V(0.70, 0.35),
    K.KRYLOV: V(0.90, 0.50),
    K.MD_NONBONDED: V(0.85, 0.50),  # Gromacs ships AVX-512 intrinsic kernels
    K.SPECTRAL: V(0.80, 0.45),
    K.SCALAR_PHYSICS: V(0.20, 0.20),
}

#: GNU targeting AVX-512 (used for Alya on MareNostrum 4, Table III): the
#: x86 back end is mature, slightly behind Intel's on gather-heavy loops.
_GNU_AVX512 = {
    K.ASM_FMA: V(1.0, 0.99),
    K.STREAM: V(1.0, 0.82),
    K.DENSE_LINALG: V(0.90, 0.70),
    K.SPMV: V(0.50, 0.22),
    K.STENCIL: V(0.80, 0.40),
    K.FEM_ASSEMBLY: V(0.60, 0.30),
    K.KRYLOV: V(0.85, 0.45),
    K.MD_NONBONDED: V(0.75, 0.45),
    K.SPECTRAL: V(0.75, 0.40),
    K.SCALAR_PHYSICS: V(0.15, 0.18),
}

# ---------------------------------------------------------------------------
# Deployment failures (paper Section V)
# ---------------------------------------------------------------------------

# Module-level named functions (not lambdas) so CompilerProfile — and the
# Binary objects that embed one — stay picklable; the sharded DES ships
# its spec (binary included) to PersistentPool workers.


def _fujitsu_alya_failure() -> CompileHang:
    return CompileHang(
        "Fujitsu compiler hangs on Alya's most complex Fortran modules",
        compiler="Fujitsu/1.2.26b",
        application="Alya",
    )


def _fujitsu_nemo_failure() -> CompileError:
    return CompileError(
        "Fujitsu compiler reports errors building NEMO v4.0.2",
        compiler="Fujitsu/1.2.26b",
        application="NEMO",
    )


def _fujitsu_gromacs_failure() -> CompileError:
    return CompileError(
        "cmake configuration step fails under the Fujitsu compiler",
        compiler="Fujitsu/1.2.26b",
        application="Gromacs",
    )


def _fujitsu_openifs_failure() -> RuntimeFailure:
    return RuntimeFailure(
        "OpenIFS built with the Fujitsu compiler aborts during execution",
        compiler="Fujitsu/1.2.26b",
        application="OpenIFS",
    )


def _gnu831_gromacs_failure() -> CompileError:
    return CompileError(
        "GNU 8.3.1-sve does not meet the requirements of Gromacs",
        compiler="GNU/8.3.1-sve",
        application="Gromacs",
    )


_FUJITSU_FAILURES = {
    "alya": _fujitsu_alya_failure,
    "nemo": _fujitsu_nemo_failure,
    "gromacs": _fujitsu_gromacs_failure,
    "openifs": _fujitsu_openifs_failure,
}

_GNU831_FAILURES = {
    "gromacs": _gnu831_gromacs_failure,
}

# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

FUJITSU_1_1_18 = CompilerProfile(
    name="Fujitsu",
    version="1.1.18",
    family="fujitsu",
    target_isa="SVE",
    vec_table=_FUJITSU_SVE,
    failures=_FUJITSU_FAILURES,
)

FUJITSU_1_2_26B = CompilerProfile(
    name="Fujitsu",
    version="1.2.26b",
    family="fujitsu",
    target_isa="SVE",
    vec_table=_FUJITSU_SVE,
    failures=_FUJITSU_FAILURES,
)

GNU_8_3_1_SVE = CompilerProfile(
    name="GNU",
    version="8.3.1-sve",
    family="gnu",
    target_isa="SVE",
    vec_table=_GNU_SVE,
    failures=_GNU831_FAILURES,
)

GNU_11_0_0 = CompilerProfile(
    name="GNU",
    version="11.0.0",
    family="gnu",
    target_isa="SVE",
    vec_table=_GNU11_SVE,
)

GNU_8_4_2 = CompilerProfile(
    name="GNU",
    version="8.4.2",
    family="gnu",
    target_isa="AVX512",
    vec_table=_GNU_AVX512,
)

INTEL_2017_4 = CompilerProfile(
    name="Intel",
    version="2017.4",
    family="intel",
    target_isa="AVX512",
    vec_table=_INTEL_AVX512,
)

INTEL_2018_4 = CompilerProfile(
    name="Intel",
    version="2018.4",
    family="intel",
    target_isa="AVX512",
    vec_table=_INTEL_AVX512,
)

INTEL_19_1 = CompilerProfile(
    name="Intel",
    version="19.1.1.217",
    family="intel",
    target_isa="AVX512",
    vec_table=_INTEL_AVX512,
)

COMPILERS: dict[str, CompilerProfile] = {
    p.label: p
    for p in (
        FUJITSU_1_1_18,
        FUJITSU_1_2_26B,
        GNU_8_3_1_SVE,
        GNU_11_0_0,
        GNU_8_4_2,
        INTEL_2017_4,
        INTEL_2018_4,
        INTEL_19_1,
    )
}

#: The compiler each application ended up built with (Table III).
_APP_DEFAULTS = {
    ("alya", "cte-arm"): GNU_8_3_1_SVE,
    ("alya", "marenostrum4"): GNU_8_4_2,
    ("nemo", "cte-arm"): GNU_8_3_1_SVE,
    ("nemo", "marenostrum4"): INTEL_2017_4,
    ("gromacs", "cte-arm"): GNU_11_0_0,
    ("gromacs", "marenostrum4"): INTEL_2018_4,
    ("openifs", "cte-arm"): GNU_8_3_1_SVE,
    ("openifs", "marenostrum4"): INTEL_2018_4,
    ("wrf", "cte-arm"): GNU_8_3_1_SVE,
    ("wrf", "marenostrum4"): INTEL_2017_4,
}


def get_compiler(label: str) -> CompilerProfile:
    """Look up a profile by its ``Name/version`` label."""
    if label not in COMPILERS:
        raise KeyError(f"unknown compiler {label!r}; choose from {sorted(COMPILERS)}")
    return COMPILERS[label]


def default_compiler_for(application: str, cluster: str) -> CompilerProfile:
    """The toolchain actually used for (application, cluster) in Table III."""
    key = (application.lower(), cluster.lower().replace("_", "-").replace(" ", "-"))
    if key[1] in ("mn4", "marenostrum-4"):
        key = (key[0], "marenostrum4")
    if key not in _APP_DEFAULTS:
        raise KeyError(f"no default compiler recorded for {key}")
    return _APP_DEFAULTS[key]
