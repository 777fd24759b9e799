import pytest

from bosefold.config import parse_config, parse_config_text
from bosefold.errors import ConfigError

GOOD_SWEEP = """\
[scenario]
kind = collision_sweep
m1 = 2
m2 = 2
mu_values = 0 5 10

[model]
n_sites = 6
base = jx

[numerics]
chi_max = 16
trunc_tol = 1e-10
"""


def test_parse_good_sweep():
    spec = parse_config_text(GOOD_SWEEP)
    assert spec.kind == "collision_sweep"
    assert spec.mu_values == (0.0, 5.0, 10.0)
    assert spec.model.base == "jx"
    assert spec.numerics.chi_max == 16
    assert spec.numerics.trunc_tol == 1e-10


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + GOOD_SWEEP.replace(
        "kind = collision_sweep", "kind = collision_sweep  # trailing")
    assert parse_config_text(text).kind == "collision_sweep"


def test_unknown_section_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[bogus]\n")
    assert exc.value.line == 1


def test_unknown_key_reports_line():
    text = GOOD_SWEEP + "color = blue\n"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert exc.value.line == text.count("\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[scenario]\nkind = ground_state\nm = soup\n")
    assert exc.value.line == 3


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("kind = quench_release\n")


def test_duplicate_section_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[scenario]\nkind = ground_state\n[scenario]\n")


def test_missing_scenario_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[model]\nn_sites = 4\n")


def test_barrier_repeats_and_triple_format():
    text = """\
[scenario]
kind = ground_state
m = 2

[model]
n_sites = 8
base = inverse_distance
j1 = 0.3
barrier = 2 3 10
barrier = 6 7 10
"""
    spec = parse_config_text(text)
    assert spec.model.barriers == ((2, 3, 10.0), (6, 7, 10.0))
    with pytest.raises(ConfigError):
        parse_config_text(text.replace("barrier = 6 7 10", "barrier = 6 7"))


def test_mu_over_n_expansion():
    text = """\
[scenario]
kind = collision_sweep
m = 4
mu_over_n = 0 0.3 0.1

[model]
n_sites = 10
base = jx
"""
    spec = parse_config_text(text)
    assert spec.mu_values == pytest.approx((0.0, 1.0, 2.0, 3.0))


def test_mu_over_n_conflicts_with_mu_values():
    bad = GOOD_SWEEP.replace("mu_values = 0 5 10",
                             "mu_values = 0 5\nmu_over_n = 0 1 0.5")
    with pytest.raises(ConfigError):
        parse_config_text(bad)


def test_validation_rules_surface_as_config_errors():
    odd_n = GOOD_SWEEP.replace("n_sites = 6", "n_sites = 5")
    with pytest.raises(ConfigError):
        parse_config_text(odd_n)
    odd_m = GOOD_SWEEP.replace("m2 = 2", "m2 = 1")
    with pytest.raises(ConfigError):
        parse_config_text(odd_m)
    for key in ("m1", "m2"):
        with pytest.raises(ConfigError, match=f"{key} must be >= 0"):
            parse_config_text(GOOD_SWEEP.replace(f"{key} = 2", f"{key} = -2"))
    quench = ("[scenario]\nkind = quench_release\nm = {m}\nt_start = {t0}\nt_end = {t1}\n"
              "steps = 3\nsnapshot_times = {snap}\n\n"
              "[model]\nn_sites = 6\nbase = jx\nbarrier = 3 4 50\n")
    good = dict(m="3", t0="0", t1="2", snap="0.5 1")
    assert parse_config_text(quench.format(**good)).snapshot_times == (0.5, 1.0)
    with pytest.raises(ConfigError, match="m must be >= 0"):
        parse_config_text(quench.format(**dict(good, m="-1")))
    for key in ("t0", "t1", "snap"):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match="must be finite"):
                parse_config_text(quench.format(**dict(good, **{key: bad})))
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config_text(quench.format(**dict(good, snap="0.5 nan")))
    # a chain of one site, in any model section
    with pytest.raises(ConfigError, match="at least 2 sites"):
        parse_config_text(quench.format(**good).replace("n_sites = 6", "n_sites = 1"))
    explicit = ("[scenario]\nkind = quench_release\nm = 3\nt_start = 0\nt_end = 2\n\n"
                "[model_pre]\nn_sites = {pre}\nbase = jx\n\n"
                "[model_post]\nn_sites = {post}\nbase = jx\n")
    assert parse_config_text(explicit.format(pre=6, post=6)).model_post.n_sites == 6
    for pre, post in ((1, 6), (6, 1), (0, 6)):
        with pytest.raises(ConfigError, match="at least 2 sites"):
            parse_config_text(explicit.format(pre=pre, post=post))
    # a collision packet with no boson, given or from splitting m
    for counts in ("m1 = 0\nm2 = 2", "m1 = 2\nm2 = 0", "m = 0"):
        with pytest.raises(ConfigError, match="m1 >= 1 and m2 >= 1"):
            parse_config_text(GOOD_SWEEP.replace("m1 = 2\nm2 = 2", counts))


def test_chi_max_below_one_rejected():
    with pytest.raises(ConfigError, match="chi_max"):
        parse_config_text(GOOD_SWEEP.replace("chi_max = 16", "chi_max = 0"))


def test_trunc_tol_outside_unit_interval_rejected():
    for bad in ("nan", "inf", "-1e-12", "1", "2.5"):
        with pytest.raises(ConfigError, match="trunc_tol"):
            parse_config_text(GOOD_SWEEP.replace("trunc_tol = 1e-10", f"trunc_tol = {bad}"))
    assert parse_config_text(GOOD_SWEEP.replace("trunc_tol = 1e-10",
                                                "trunc_tol = 0")).numerics.trunc_tol == 0.0


def test_zero_mu_over_n_step_rejected():
    for grid in ("0 1 0", "0 nan 0.5", "0 1 nan"):
        bad = GOOD_SWEEP.replace("mu_values = 0 5 10", f"mu_over_n = {grid}")
        with pytest.raises(ConfigError, match="mu_over_n"):
            parse_config_text(bad)


def test_negative_beta_rejected():
    text = ("[scenario]\nkind = transfer_report\nepsilon = 0.001\nbeta = {}\n\n"
            "[model]\nn_sites = 7\nbase = jx\n")
    assert parse_config_text(text.format("0")).beta == 0.0
    for bad in ("-0.5", "nan"):
        with pytest.raises(ConfigError, match="beta"):
            parse_config_text(text.format(bad))


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(GOOD_SWEEP)
    assert parse_config(path).kind == "collision_sweep"
