"""Pins of the lifetime evaluator surface.

perfbench's tracer wraps each evaluator it finds in a class's own
``__dict__``, so every evaluator must be assigned in the class namespace,
not inherited; the first test fails as soon as one is not. The golden
sha256 digests pin the floats every model evaluator returns, on scalars
and on arrays, and the tail points of models and systems, so moving an
evaluator cannot change a bit of its output.
"""

import hashlib

import numpy as np
import pytest

from stochord import Baseline, GompertzMakeham, SystemSpec, WeibullG

MODEL_EVALUATORS = ("sf", "cdf", "log_cdf", "pdf", "hazard", "reversed_hazard",
                    "cumulative_hazard", "quantile", "support_upper")
SYSTEM_EVALUATORS = ("sf", "cdf", "hazard", "reversed_hazard", "pdf", "support_upper")


def test_tracer_finds_every_evaluator_in_the_class_namespace():
    for cls in (WeibullG, GompertzMakeham):
        assert set(MODEL_EVALUATORS) <= set(vars(cls)), cls.__name__
    assert set(SYSTEM_EVALUATORS) <= set(vars(SystemSpec))


USER_EXPONENTIAL = Baseline.user_supplied(
    cdf=lambda t: -np.expm1(-np.asarray(t, dtype=float)),
    pdf=lambda t: np.exp(-np.asarray(t, dtype=float)),
)
MODELS = {
    "wg": WeibullG(1.5, 2.0, 0.8),
    "wg-user": WeibullG(1.5, 2.0, 0.8, baseline=USER_EXPONENTIAL),
    "wg-shape-half": WeibullG(0.7, 0.5, 1.3),
    "gm": GompertzMakeham(0.3, 1.2, 0.5),
}
SYSTEMS = {
    "series": SystemSpec((MODELS["wg"], MODELS["gm"], WeibullG(2.0, 3.0, 0.5)), "series"),
    "parallel": SystemSpec((MODELS["wg"], MODELS["gm"], WeibullG(2.0, 3.0, 0.5)), "parallel"),
}
# points from where the cdf is tiny to where the survival underflows
XS = np.geomspace(1e-3, 12.0, 257)
US = np.concatenate(([1e-12, 1e-6], np.linspace(0.01, 0.99, 33), [1.0 - 1e-9]))
TAILS = (1e-3, 1e-6, 1e-12)


def _evaluator_digest(model, name: str) -> str:
    """sha256 of the evaluator's results: each scalar point's type and repr,
    then the array result's dtype, shape and bytes."""
    fn = getattr(model, name)
    points = US if name == "quantile" else XS
    h = hashlib.sha256()
    for p in points[::8]:
        out = fn(float(p))
        h.update(f"{type(out).__name__}:{out!r};".encode())
    out = fn(points)
    h.update(f"{out.dtype}{out.shape}".encode())
    h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


def _tail_digest(dist) -> str:
    """sha256 of the default tail point and those at 1e-3, 1e-6 and 1e-12."""
    points = [dist.support_upper()] + [dist.support_upper(tail) for tail in TAILS]
    return hashlib.sha256(repr(points).encode()).hexdigest()


# taken before the evaluators were derived once from the cumulative hazard and
# hazard; the user-supplied baseline's quantile is its bisection
EVALUATOR_GOLDEN = {
    "wg:sf": "aecf910dd703082e4a02330c3a04d0c30696dcfa8575de4f2793307e4aad5f1e",
    "wg:cdf": "4b9ca03042852fefd39021e2d69a8ca12613b7ac6e1235b9f67e7a544afd66ce",
    "wg:log_cdf": "e3c3655c66aeb058fcd4a637ddc504c0d13d2c872d81b23a9f95f5665da78d63",
    "wg:pdf": "110360168ff2dec29f1ad4ad17b819b2e69e5b8045e713e2469703444d0bfd1e",
    "wg:hazard": "490ff5ef9bf61bea86618a12c6875601df945e1d14f3b30d6a0aa4083007ad4c",
    "wg:reversed_hazard": "baaed1dccbaaf09064fb940edf1238fe6ac8b9c59f0fc5adfc5db928a8b49ab6",
    "wg:cumulative_hazard": "39f9d9789862f861aa79cb3ed1c8330675db30acbde4272154cff3a8b559ac45",
    "wg:quantile": "fdcdf58acc93a5108d434a3442f1c17e95d77ecaa5bae44b0dba6a05d028b915",
    "wg-user:sf": "b1f00566395c6573484b520437779076a63aeb8f377b5112cfb799fe05b6bcad",
    "wg-user:cdf": "37570a3e249c2fc127640d7176951a66976215f310fb9d340118658e32d38760",
    "wg-user:log_cdf": "42f6b103563747c560c3a2378053c385d75b822c594031245e556f45b7860364",
    "wg-user:pdf": "94edc4bd7b327ea98ec99be8c3b3f35cb58afbf3441d7c1186ef4154f8372ea5",
    "wg-user:hazard": "e6d6c75dbd7d991909d0b70444e894b705a8de5c100bf88089e8ca735d342471",
    "wg-user:reversed_hazard": "06edda28bf4daabff4c749a1f51c3fe56ef6ed428e82a3e57adce6fad0d50189",
    "wg-user:cumulative_hazard": "0c1d33f1e5da6dc4d1b2faba7d4cf568d151053e3722af4e82cce3c971b2e66a",
    "wg-user:quantile": "b143390938d7c9956d9f164056c0fac9c13d6a1108a01b6d2b3c1279527a7b4c",
    "wg-shape-half:sf": "422b9ce6f4570a358ab583966647637926216e01e15e5f53d6ead6ebcb5f0d5d",
    "wg-shape-half:cdf": "484f7b81bab65ed5736aa127353e4736c6274ede25551c408fb701c0b2d7fab0",
    "wg-shape-half:log_cdf": "272c206e0acf7b460467d27b33d56a0d30df1a1498ba9a6ffbc5c235ccf7475f",
    "wg-shape-half:pdf": "1a3147cf7c3e91276b8b5445aa71878cc6db8360bc3a746c695d7700bdadffa4",
    "wg-shape-half:hazard": "02919efaa314ea1363e1a9668528904607f90d3081b7251028dd6a0177839cfc",
    "wg-shape-half:reversed_hazard": "c8175e22d5d5ee1022db856e9acbbff09253a20c9f45065e72b5030c7e0f1635",
    "wg-shape-half:cumulative_hazard": "32ccfee12cf5454b82f1d67e6cbc8b26782629c6564225cbdf1994bb66f0db16",
    "wg-shape-half:quantile": "a15c6092eb8e35db0b0a3e11c2a1227ed9099ada3769f15265cefef1a95a417d",
    "gm:sf": "3e65799b9570f576bfd1dbdfad0ed0a1d8425b2af3b781f05922f744e1c3ab0d",
    "gm:cdf": "fbee007d3ff104b2f1847e9b289b2e1de57c84cb3e742dc049f3e369f5d9a4a0",
    "gm:log_cdf": "e9e6707802c673276aaa9eed5366b9b10e767cfd3d6222864e796c47adf338b7",
    "gm:pdf": "cfc259fcfed7252d77b91d4120999e4d2138ad14ba65021171e9cb68f3f4f71d",
    "gm:hazard": "1e038b198ab9184a9821ce5d684f04746d2242943f7c17b210021aa963feae43",
    "gm:reversed_hazard": "eef618ff27c92735a75fca99818bb0ecdbe30204671fe3fca20a92679d186a0a",
    "gm:cumulative_hazard": "c9392b6d0cb49c3416d90655c5f22e8854e4abd665645ab7cf9494e01e3cd107",
    "gm:quantile": "e28756317283013746a103866434f4126fb393df426c096ab2b4ec0d43e3ae4b",
}
TAIL_GOLDEN = {
    "wg": "389ef8ccd64405411f50b7f913b592e2aad11ab5d0af161fc9a6a1d815be369f",
    "wg-user": "2aad367594a4c91f99776a6c466f4dad729ade82193538c6eca9b71dcd54de68",
    "wg-shape-half": "ef3f62761326e3101bd62b7e3806471081f68aa33283990f5e9f3bc27dcbac72",
    "gm": "95c9db1deea4973901416a084a95bc1c5ab545a010a1e6832128b89f4010259a",
    "series": "8b9591b5f2c02105097e382fa0d67b5669e6f729956bd5fbb5048c15524d2a00",
    "parallel": "04acaacd099638092ae62a92f4cd93336db9d5130b6bc48a1023ff49f2872ff0",
}


@pytest.mark.parametrize("key", sorted(EVALUATOR_GOLDEN))
def test_model_evaluators_are_pinned(key):
    model, name = key.split(":")
    assert _evaluator_digest(MODELS[model], name) == EVALUATOR_GOLDEN[key]


@pytest.mark.parametrize("key", sorted(TAIL_GOLDEN))
def test_tail_points_are_pinned(key):
    dist = MODELS.get(key) or SYSTEMS[key]
    assert _tail_digest(dist) == TAIL_GOLDEN[key]
