import pytest

from sgfcf import (
    ExponentialFilter,
    G2NConfig,
    GridSpec,
    IgfConfig,
    JacobiFilter,
    MonomialFilter,
    SgfcfConfig,
    SplitConfig,
)
from sgfcf.errors import ConfigError, KTooLarge, check_integer, check_real

# (name in the message, builder taking the value)
FLOAT_SETTINGS = [
    ("alpha", lambda v: G2NConfig(alpha=v)),
    ("epsilon", lambda v: G2NConfig(epsilon=v)),
    ("gamma", lambda v: SgfcfConfig(K=4, gamma=v)),
    ("beta", lambda v: IgfConfig(beta=v, beta1=1.0, beta2=1.0)),
    ("beta1", lambda v: IgfConfig(beta=1.0, beta1=v)),
    ("beta2", lambda v: IgfConfig(beta=1.0, beta2=v)),
    ("monomial beta", lambda v: MonomialFilter(beta=v)),
    ("exponential beta", lambda v: ExponentialFilter(beta=v)),
    ("jacobi a", lambda v: JacobiFilter(a=v)),
    ("jacobi b", lambda v: JacobiFilter(b=v)),
    ("train_ratio", lambda v: SplitConfig(train_ratio=v)),
    ("val_ratio", lambda v: SplitConfig(train_ratio=0.8, val_ratio=v)),
    ("axis 'gamma' value", lambda v: GridSpec(axes={"gamma": [v]})),
]


@pytest.mark.parametrize("value", ["1", None, True, float("nan")], ids=repr)
@pytest.mark.parametrize("name, build", FLOAT_SETTINGS, ids=[name for name, _ in FLOAT_SETTINGS])
def test_float_setting_that_is_no_finite_number_raises_config_error(name, build, value):
    # a string or None once raised TypeError, and G2NConfig(alpha=True) built
    if value is None and name in ("beta1", "beta2"):
        build(value)  # an end left None equals beta
        return
    with pytest.raises(ConfigError, match=f"^{name} must be a finite number"):
        build(value)


def test_bounds_and_their_error_class():
    check_integer("K", 5, 1, 5, KTooLarge)
    check_real("epsilon", -0.5, -0.5, 0)
    with pytest.raises(KTooLarge, match=r"^K must be in \[1, 5\], got 6$"):
        check_integer("K", 6, 1, 5, KTooLarge)
    with pytest.raises(ConfigError, match="^K must be an integer"):
        check_integer("K", 6.0, 1, 5, KTooLarge)
    with pytest.raises(ConfigError, match="^gamma must be >= 0, got -0.1$"):
        check_real("gamma", -0.1, lo=0)
    with pytest.raises(ConfigError, match="^gamma must be a finite number, got inf$"):
        check_real("gamma", float("inf"), lo=0)
