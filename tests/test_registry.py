import copy
import math
import os
import re
import tempfile

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import substep_return
from quadcpg.batch import evaluate_batch
from quadcpg.cli import EXIT_CONFIG, main
from quadcpg.controllers import open_loop_trot
from quadcpg.oscillator import MU_MAX, MU_MIN, OMEGA_MAX_HZ, OMEGA_MIN_HZ
from quadcpg.registry import (MORPH_ANIMAL, MORPH_MIXED, RegistryError, UnknownRobotError, builtin_registry,
                              get_robot, load_registry, save_registry)
from quadcpg.rollout import run_rollout

GOOD_ENTRY = {
    "name": "BadBot", "height_cm": 30.0, "mass_kg": 10.0,
    "l_step_cm": 12.0, "l_clrnc_cm": 6.0, "l_pntr_cm": 1.0,
    "x_offset_cm": 0.0, "z_offset_cm": 0.0, "dof": 12, "morphology": 1,
    "kp": 80.0, "kd": 2.0,
    "geometry": {
        "hip_offsets": [[0.1, -0.03, 0.0], [0.1, 0.03, 0.0],
                        [-0.1, -0.03, 0.0], [-0.1, 0.03, 0.0]],
        "link_lengths": [0.2, 0.2],
        "y_nominal": 0.024,
    },
}

#: Registry-file key -> the field name the RegistryError must carry.
NUMERIC_FIELDS = {
    "kp": "kp", "kd": "kd", "mass_kg": "mass", "l_step_cm": "l_step",
    "l_clrnc_cm": "l_clrnc", "l_pntr_cm": "l_pntr", "x_offset_cm": "x_off",
    "z_offset_cm": "z_off", "link_lengths": "link_lengths",
    "y_nominal": "y_nominal", "hip_offsets": "hip_offset",
}


def entry_with(key, value):
    """GOOD_ENTRY with one number (or the hip offsets) replaced."""
    entry = copy.deepcopy(GOOD_ENTRY)
    geometry = entry["geometry"]
    if key in entry:
        entry[key] = value
    elif key == "link_lengths":
        geometry["link_lengths"] = [value, 0.2]
    elif key == "hip_offsets":
        geometry["hip_offsets"][2] = value if isinstance(value, list) else [-0.1, value, 0.0]
    else:
        geometry[key] = value
    return entry


def write_registry(path, entry):
    path.write_text(yaml.safe_dump({"robots": [entry]}))
    return str(path)


BAD_VALUES = [pytest.param(key, value, named, id=f"{key}-{value}")
              for key, named in NUMERIC_FIELDS.items()
              for value in (math.nan, math.inf)]
BAD_VALUES.append(pytest.param("hip_offsets", [-0.1, -0.03], "hip_offset",
                               id="hip_offsets-2d"))
# finite, but an episode would overflow: the IK's squares, or the power term
BAD_VALUES += [pytest.param(key, value, named, id=f"{key}-{value:g}")
               for key, value, named in (("l_clrnc_cm", 1e308, "l_clrnc"),
                                         ("l_pntr_cm", 1e308, "l_pntr"),
                                         ("z_offset_cm", 1e308, "z_off"),
                                         ("kp", 1e308, "kp"), ("kd", 1e304, "kd"),
                                         ("kd", 1e299, "kd"))]


class TestBuiltins:
    def test_sixteen_robots(self):
        reg = builtin_registry()
        assert len(reg) == 16
        masses = [r.mass for r in reg]
        assert min(masses) == 2.5 and max(masses) == 200.0

    def test_little_dog_row(self):
        r = builtin_registry().get("Little Dog")
        assert r.kp == 20.0 and r.kd == 0.3
        assert r.dof_total == 12
        assert r.morphology == MORPH_MIXED

    def test_a1_row(self):
        r = builtin_registry().get("A1")
        assert r.mass == 12.0 and r.kp == 100.0

    def test_animal_like_robots(self):
        reg = builtin_registry()
        animals = [r.name for r in reg if r.morphology == MORPH_ANIMAL]
        assert animals == ["Dog1", "Dog2", "Dog3"]
        for name in animals:
            assert reg.get(name).dof_total == 16

    def test_morphology_dof_consistency(self):
        for r in builtin_registry():
            assert r.dof_total == 4 * r.legs[0].dof
            assert (r.dof_total == 16) == (r.morphology == MORPH_ANIMAL)

    def test_heights_span(self):
        heights = [r.height_nominal for r in builtin_registry()]
        assert min(heights) == pytest.approx(0.183)
        assert max(heights) == pytest.approx(1.00)


class TestLookup:
    def test_case_insensitive(self):
        reg = builtin_registry()
        assert reg.get("a1") is reg.get("A1")

    def test_unknown_robot_lists_names(self):
        with pytest.raises(UnknownRobotError) as exc:
            builtin_registry().get("Spot-Mini")
        assert "A1" in str(exc.value)

    def test_get_robot_default_registry(self):
        assert get_robot("HYQ").mass == 86.7

    def test_builtin_registry_built_once(self):
        assert get_robot("A1") is get_robot("A1")
        assert builtin_registry() is builtin_registry()
        assert len(load_registry(None)) == 16


class TestFiles:
    def test_user_file_adds_robot(self, tmp_path):
        path = tmp_path / "extra.yaml"
        path.write_text(yaml.safe_dump({"robots": [{
            "name": "TestBot", "height_cm": 35.0, "mass_kg": 10.0,
            "l_step_cm": 12.0, "l_clrnc_cm": 6.0, "l_pntr_cm": 1.0,
            "x_offset_cm": 0.0, "dof": 12, "morphology": 1,
            "kp": 80.0, "kd": 2.0}]}))
        reg = load_registry(str(path))
        assert len(reg) == 17
        assert reg.get("TestBot").height_nominal == pytest.approx(0.35)
        assert reg.names() == builtin_registry().names() + ["TestBot"]

    def test_user_file_overrides_builtin(self, tmp_path):
        path = tmp_path / "override.yaml"
        path.write_text(yaml.safe_dump({"robots": [{
            "name": "A1", "height_cm": 30.0, "mass_kg": 13.5,
            "l_step_cm": 13.0, "l_clrnc_cm": 7.0, "l_pntr_cm": 1.0,
            "x_offset_cm": 0.0, "dof": 12, "morphology": 1,
            "kp": 100.0, "kd": 2.7}]}))
        reg = load_registry(str(path))
        assert len(reg) == 16
        assert reg.get("A1").mass == 13.5
        assert reg.names() == builtin_registry().names()   # A1 keeps its place

    def test_invalid_kp_names_field(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"robots": [{
            "name": "BadBot", "height_cm": 30.0, "mass_kg": 10.0,
            "l_step_cm": 12.0, "l_clrnc_cm": 6.0, "l_pntr_cm": 1.0,
            "x_offset_cm": 0.0, "dof": 12, "morphology": 1,
            "kp": -1.0, "kd": 2.0}]}))
        with pytest.raises(RegistryError, match="kp"):
            load_registry(str(path))

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "missing.yaml"
        path.write_text(yaml.safe_dump({"robots": [{
            "name": "NoMass", "height_cm": 30.0,
            "l_step_cm": 12.0, "l_clrnc_cm": 6.0, "l_pntr_cm": 1.0,
            "x_offset_cm": 0.0, "dof": 12, "morphology": 1,
            "kp": 10.0, "kd": 2.0}]}))
        with pytest.raises(RegistryError, match="mass_kg"):
            load_registry(str(path))

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "corrupt.yaml"
        path.write_text("robots: [unclosed")
        with pytest.raises(RegistryError):
            load_registry(str(path))

    def test_inconsistent_morphology_rejected(self, tmp_path):
        path = tmp_path / "mixed_up.yaml"
        path.write_text(yaml.safe_dump({"robots": [{
            "name": "Weird", "height_cm": 30.0, "mass_kg": 10.0,
            "l_step_cm": 12.0, "l_clrnc_cm": 6.0, "l_pntr_cm": 1.0,
            "x_offset_cm": 0.0, "dof": 16, "morphology": 1,
            "kp": 10.0, "kd": 2.0}]}))
        with pytest.raises(RegistryError, match="morphology"):
            load_registry(str(path))


class TestRoundTrip:
    def test_save_and_reload_identical(self, tmp_path):
        reg = builtin_registry()
        path = tmp_path / "dump.yaml"
        save_registry(reg, str(path))
        reloaded = load_registry(str(path))
        assert len(reloaded) == len(reg)
        for a, b in zip(reg, reloaded):
            assert a == b


    def test_height_nominal_is_pf_h(self, tmp_path):
        reg = builtin_registry()
        path = tmp_path / "dump.yaml"
        save_registry(reg, str(path))
        robots = list(reg) + list(load_registry(str(path)))
        assert len(robots) == 32
        for robot in robots:
            assert robot.height_nominal == robot.pf.h

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_valid_entry_survives_save_and_load(self, data):
        dof, morphology = data.draw(st.sampled_from([(12, 1), (12, 2), (16, 3)]))
        length = st.floats(0.01, 1.0)
        coord = st.floats(-0.5, 0.5)
        entry = {
            "name": data.draw(st.text("abcXYZ019 -_", min_size=1, max_size=10)),
            "height_cm": data.draw(st.floats(5.0, 200.0)),
            "mass_kg": data.draw(st.floats(0.1, 500.0)),
            "l_step_cm": data.draw(st.floats(0.0, 50.0)),
            "l_clrnc_cm": data.draw(st.floats(0.0, 20.0)),
            "l_pntr_cm": data.draw(st.floats(0.0, 5.0)),
            "x_offset_cm": data.draw(st.floats(-20.0, 20.0)),
            "z_offset_cm": data.draw(st.floats(-20.0, 20.0)),
            "dof": dof,
            "morphology": morphology,
            "kp": data.draw(st.floats(1e-3, 5000.0)),
            "kd": data.draw(st.floats(0.0, 500.0)),
        }
        if data.draw(st.booleans()):
            entry["geometry"] = {
                "hip_offsets": data.draw(st.lists(st.lists(coord, min_size=3, max_size=3),
                                                  min_size=4, max_size=4)),
                "link_lengths": data.draw(st.lists(length, min_size=dof // 4 - 1,
                                                   max_size=dof // 4 - 1)),
                "y_nominal": data.draw(st.floats(0.0, 0.2)),
            }
        with tempfile.TemporaryDirectory() as tmp:
            src, dump = os.path.join(tmp, "src.yaml"), os.path.join(tmp, "dump.yaml")
            with open(src, "w") as fh:
                yaml.safe_dump({"robots": [entry]}, fh)
            robot = load_registry(src).get(entry["name"])
            save_registry(load_registry(src), dump)
            reloaded = load_registry(dump).get(entry["name"])
        assert reloaded == robot
        assert reloaded.height_nominal == robot.pf.h == entry["height_cm"] / 100.0


class TestBoundary:
    """Every number of a registry entry must be finite, and so must the IK and
    the power term of every episode it gives; hips have 3 coordinates."""

    @pytest.mark.parametrize("key, value, named", BAD_VALUES)
    def test_load_rejects_and_names_robot_and_field(self, tmp_path, key, value, named):
        path = write_registry(tmp_path / "bad.yaml", entry_with(key, value))
        with pytest.raises(RegistryError) as exc:
            load_registry(path)
        assert "BadBot" in str(exc.value)
        assert named in str(exc.value)

    @pytest.mark.parametrize("key, value, named", BAD_VALUES)
    def test_cli_rollout_exits_config_and_writes_nothing(self, capsys, tmp_path,
                                                         key, value, named):
        path = write_registry(tmp_path / "bad.yaml", entry_with(key, value))
        out = tmp_path / "bad.csv"
        code = main(["--registry", path, "rollout", "--robot", "BadBot",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "BadBot" in err and named in err
        assert os.listdir(tmp_path) == ["bad.yaml"]

    def test_negative_y_nominal_rejected(self, tmp_path):
        path = write_registry(tmp_path / "bad.yaml", entry_with("y_nominal", -0.03))
        with pytest.raises(RegistryError, match="BadBot: y_nominal"):
            load_registry(path)

    def test_good_entry_loads(self, tmp_path):
        path = write_registry(tmp_path / "good.yaml", GOOD_ENTRY)
        robot = load_registry(path).get("BadBot")
        assert robot.height_nominal == robot.pf.h == 0.30


#: (geometry or entry replacement, the field the RegistryError must name).
WRONG_TYPES = [
    pytest.param({"geometry": 5}, "geometry", id="geometry-int"),
    pytest.param({"geometry": [0.2, 0.2]}, "geometry", id="geometry-list"),
    pytest.param({"geometry": {"hip_offsets": 5}}, "hip_offsets", id="hip_offsets-int"),
    pytest.param({"geometry": {"hip_offsets": [1, 2, 3, 4]}}, "hip_offsets",
                 id="hip_offsets-flat"),
    pytest.param({"geometry": {"link_lengths": 0.2}}, "link_lengths", id="link_lengths-float"),
    pytest.param({"geometry": {"link_lengths": "0.2"}}, "link_lengths", id="link_lengths-str"),
    pytest.param({"geometry": {"y_nominal": [0.02]}}, "y_nominal", id="y_nominal-list"),
    pytest.param({"geometry": {"y_nominal": "wide"}}, "y_nominal", id="y_nominal-str"),
    pytest.param({"z_offset_cm": [1.0]}, "z_offset_cm", id="z_offset_cm-list"),
    pytest.param({"dof": 12.9}, "dof", id="dof-fraction"),
    pytest.param({"dof": math.inf}, "dof", id="dof-inf"),
    pytest.param({"dof": True}, "dof", id="dof-bool"),
    pytest.param({"dof": 8}, "dof", id="dof-8"),
    pytest.param({"geometry": {"link_lengths": [0.2, 0.15, 0.1]}}, "link_lengths",
                 id="link_lengths-three-for-12"),
    pytest.param({"mass_kg": True}, "mass_kg", id="mass_kg-bool"),
    pytest.param({"kd": False}, "kd", id="kd-no"),   # YAML 1.1 reads `no` as false
    pytest.param({"morphology": True}, "morphology", id="morphology-bool"),
    pytest.param({"geometry": {"link_lengths": [True, 0.2]}}, "link_lengths",
                 id="link_lengths-bool"),
    pytest.param({"geometry": {"hip_offsets": [[0.1, -0.03, False], [0.1, 0.03, 0.0],
                                               [-0.1, -0.03, 0.0], [-0.1, 0.03, 0.0]]}},
                 "hip_offsets", id="hip_offsets-bool"),
    pytest.param({"geometry": {"y_nominal": True}}, "y_nominal", id="y_nominal-bool"),
]


def test_whole_float_dof_loads(tmp_path):
    entry = copy.deepcopy(GOOD_ENTRY)
    entry["dof"] = 12.0
    robot = load_registry(write_registry(tmp_path / "ok.yaml", entry)).get("BadBot")
    assert robot.dof_total == 12 and type(robot.dof_total) is int


def test_one_robot_named_twice_is_rejected(tmp_path):
    twin = copy.deepcopy(GOOD_ENTRY)
    twin["name"], twin["mass_kg"] = "badbot", 11.0   # names match case-insensitively
    path = tmp_path / "twice.yaml"
    path.write_text(yaml.safe_dump({"robots": [GOOD_ENTRY, twin]}))
    with pytest.raises(RegistryError, match="badbot: field 'name' repeats"):
        load_registry(str(path))
    assert main(["--registry", str(path), "robots"]) == EXIT_CONFIG


@pytest.mark.parametrize("name", [True, 12, ["a"], None], ids=["true", "12", "list", "null"])
def test_non_string_name_is_rejected(capsys, tmp_path, name):
    path = write_registry(tmp_path / "bad.yaml", entry_with("name", name))
    message = f"robot entry field 'name' must be a string, got {name!r}"
    with pytest.raises(RegistryError) as exc:
        load_registry(path)
    assert str(exc.value) == message
    assert main(["--registry", path, "robots"]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"error: registry error: {message}\n")


def test_quoted_number_name_loads(tmp_path):
    path = write_registry(tmp_path / "ok.yaml", entry_with("name", "12"))
    assert "name: '12'" in (tmp_path / "ok.yaml").read_text()
    assert load_registry(path).get("12").name == "12"


@pytest.mark.parametrize("count", [3, 5])
def test_one_hip_offset_per_limb(tmp_path, count):
    entry = copy.deepcopy(GOOD_ENTRY)
    entry["geometry"]["hip_offsets"] = [[0.1, 0.03, 0.0]] * count
    path = write_registry(tmp_path / "bad.yaml", entry)
    with pytest.raises(RegistryError, match=f"BadBot: expected 4 hip offsets .*got {count}"):
        load_registry(path)


class TestWrongTypes:
    """A YAML value of the wrong type is a named RegistryError, not a crash."""

    @staticmethod
    def entry(replacement):
        entry = copy.deepcopy(GOOD_ENTRY)
        del entry["geometry"]
        entry.update(replacement)
        return entry

    @pytest.mark.parametrize("replacement, named", WRONG_TYPES)
    def test_load_names_robot_and_field(self, tmp_path, replacement, named):
        path = write_registry(tmp_path / "bad.yaml", self.entry(replacement))
        with pytest.raises(RegistryError) as exc:
            load_registry(path)
        assert "BadBot" in str(exc.value) and named in str(exc.value)

    @pytest.mark.parametrize("replacement, named", WRONG_TYPES)
    def test_cli_robots_exits_config(self, capsys, tmp_path, replacement, named):
        path = write_registry(tmp_path / "bad.yaml", self.entry(replacement))
        assert main(["--registry", path, "robots"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "BadBot" in err and named in err

    @pytest.mark.parametrize("replacement", [{"geometry": None}, {"geometry": {}},
                                             {"z_offset_cm": None}])
    def test_empty_values_take_the_defaults(self, tmp_path, replacement):
        path = write_registry(tmp_path / "ok.yaml", self.entry(replacement))
        robot = load_registry(path).get("BadBot")
        assert robot.pf.z_off == 0.0
        if "geometry" in replacement:   # A1 has the same height, DoF and morphology
            assert robot.legs == get_robot("A1").legs


#: A1's stride lengths, cm: a scaled robot multiplies them all alike.
A1_LENGTHS = {"height_cm": 30.0, "l_step_cm": 13.0, "l_clrnc_cm": 7.0,
              "l_pntr_cm": 1.0, "x_offset_cm": 0.0}


def scaled_entry(height_cm, dof):
    """An A1-proportioned entry of the given height, its geometry derived from it."""
    k = height_cm / A1_LENGTHS["height_cm"]
    entry = {"name": "Scaled", "mass_kg": 12.0, "dof": dof,
             "morphology": 1 if dof == 12 else 3, "kp": 100.0, "kd": 2.7}
    entry.update({key: value * k for key, value in A1_LENGTHS.items()})
    return entry


class TestRobotSize:
    """A size that puts an IK constant out of float range is rejected at load,
    named by the field it derives from; every size that loads runs finite."""

    @pytest.mark.parametrize("dof", [12, 16])
    @pytest.mark.parametrize("height_cm", [1.0e-200, 1.0e200])
    def test_out_of_range_size_names_height(self, capsys, tmp_path, height_cm, dof):
        path = write_registry(tmp_path / "size.yaml", scaled_entry(height_cm, dof))
        with pytest.raises(RegistryError, match="Scaled: height_cm"):
            load_registry(path)
        assert main(["--registry", path, "robots"]) == EXIT_CONFIG
        assert "Scaled: height_cm" in capsys.readouterr().err

    @pytest.mark.parametrize("height_cm, dof, loads", [
        (1.0e155, 12, True), (1.0e156, 12, False), (1.0e78, 16, True), (1.0e79, 16, False)])
    def test_largest_size_that_loads(self, tmp_path, height_cm, dof, loads):
        path = write_registry(tmp_path / "size.yaml", scaled_entry(height_cm, dof))
        if loads:
            assert load_registry(path).get("Scaled").height_nominal == height_cm / 100.0
        else:
            with pytest.raises(RegistryError, match="Scaled: the stride .* out of float range"):
                load_registry(path)

    def test_explicit_links_are_named(self, tmp_path):
        entry = copy.deepcopy(GOOD_ENTRY)
        entry["geometry"]["link_lengths"] = [1.0e-200, 1.0e-200]
        with pytest.raises(RegistryError, match="BadBot: link_lengths"):
            load_registry(write_registry(tmp_path / "size.yaml", entry))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-323.0, 308.0), st.sampled_from([12, 16]))
    def test_every_loaded_size_runs_finite(self, log_height_cm, dof):
        entry = scaled_entry(10.0 ** log_height_cm, dof)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "size.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump({"robots": [entry]}, fh)
            try:
                robot = load_registry(path).get("Scaled")
            except RegistryError:
                return
        record = run_rollout(robot, open_loop_trot(4.0, 5.0), 0.05)
        assert all(math.isfinite(v) for row in record.rows for v in row)
        assert all(map(math.isfinite, evaluate_batch(robot, [(4.0, 5.0), (1.0, 2.5)], 5)))


#: Each number of a registry entry: a value of normal use, as a strategy.
#: The geometry's lists are varied one element at a time.
NORMAL = {
    "height_cm": st.floats(5.0, 200.0), "mass_kg": st.floats(0.1, 500.0),
    "l_step_cm": st.floats(0.0, 50.0), "l_clrnc_cm": st.floats(0.0, 20.0),
    "l_pntr_cm": st.floats(0.0, 5.0), "x_offset_cm": st.floats(-20.0, 20.0),
    "z_offset_cm": st.floats(-20.0, 20.0), "kp": st.floats(1e-3, 5000.0),
    "kd": st.floats(0.0, 500.0), "y_nominal": st.floats(0.0, 0.2),
    "link_lengths": st.floats(0.01, 1.0), "hip_offsets": st.floats(-0.5, 0.5),
}

#: Any float, and every power of ten of either sign up to the float limits.
EXTREME = st.floats() | st.builds(lambda sign, e: sign * 10.0 ** e,
                                  st.sampled_from([1.0, -1.0]), st.integers(-323, 308))

#: The names a RegistryError may give a field by: the file's keys, the
#: descriptor's own names for them and the two categorical fields.
FIELD_NAMES = re.compile(r"\b(%s)\b" % "|".join(
    sorted(set(NORMAL) | set(NUMERIC_FIELDS.values()) | {"abd_offset", "dof", "morphology"})))


@st.composite
def registry_entries(draw):
    """A registry entry whose numbers are normal but for a drawn set of
    fields, alone or together, which take any float; its geometry is given
    or derived from the height."""
    extreme = draw(st.sets(st.sampled_from(sorted(NORMAL))))

    def number(key):
        return draw(EXTREME if key in extreme else NORMAL[key])

    dof, morphology = draw(st.sampled_from([(12, 1), (12, 2), (16, 3)]))
    entry = {"name": "Drawn", "dof": dof, "morphology": morphology}
    entry.update((key, number(key)) for key in
                 ("height_cm", "mass_kg", "l_step_cm", "l_clrnc_cm", "l_pntr_cm",
                  "x_offset_cm", "z_offset_cm", "kp", "kd"))
    if extreme & {"y_nominal", "link_lengths", "hip_offsets"} or draw(st.booleans()):
        def vector(key, size):
            values = [draw(NORMAL[key]) for _ in range(size)]
            if key in extreme:
                values[draw(st.integers(0, size - 1))] = number(key)
            return values

        hips = vector("hip_offsets", 12)
        entry["geometry"] = {"hip_offsets": [hips[i:i + 3] for i in range(0, 12, 3)],
                             "link_lengths": vector("link_lengths", dof // 4 - 1),
                             "y_nominal": number("y_nominal")}
    return entry


def example_with(key, value):
    """The explicit examples: GOOD_ENTRY with one number replaced."""
    return example(entry=entry_with(key, value), commands=[(4.0, 5.0)], horizon=2)


#: Feet whose targets pass a subnormal x_off from the hip: scaling such a
#: target onto the reach bound overflows, so the IK takes it as the hip.
NEXT_TO_THE_HIP = {
    "name": "Drawn", "dof": 12, "morphology": 1, "height_cm": 10.0, "mass_kg": 1.0,
    "l_step_cm": 0.0, "l_clrnc_cm": 0.0, "l_pntr_cm": 0.0,
    "x_offset_cm": 1.1125369292536007e-308, "z_offset_cm": 10.0, "kp": 1.0, "kd": 0.0,
    "geometry": {"hip_offsets": [[0.0, 0.0, 0.0]] * 4, "link_lengths": [1.0, 0.5],
                 "y_nominal": 0.0},
}

COMMAND = st.tuples(st.floats(MU_MIN - 1.0, MU_MAX + 1.0),
                    st.floats(OMEGA_MIN_HZ - 1.0, OMEGA_MAX_HZ + 1.0))


@settings(max_examples=100, deadline=None)
@given(entry=registry_entries(), commands=st.lists(COMMAND, min_size=1, max_size=3),
       horizon=st.integers(1, 3))
@example_with("l_clrnc_cm", 1e308)
@example_with("l_pntr_cm", 1e308)
@example_with("z_offset_cm", 1e308)
@example_with("kp", 1e308)
@example_with("kd", 1e304)
@example(entry=scaled_entry(1e79, 16), commands=[(4.0, 5.0)], horizon=2)
@example(entry=NEXT_TO_THE_HIP, commands=[(0.0, 0.0)], horizon=1)
@example(entry=dict(NEXT_TO_THE_HIP, dof=16, morphology=3,
                    geometry=dict(NEXT_TO_THE_HIP["geometry"], link_lengths=[1.0, 0.5, 0.3])),
         commands=[(0.0, 0.0)], horizon=1)
@example(entry=scaled_entry(1e78, 16), commands=[(4.0, 5.0), (1.0, 2.5)], horizon=2)
def test_every_entry_is_named_or_runs_finite_and_exact(entry, commands, horizon):
    """A drawn entry either raises a RegistryError naming a field, or runs a
    finite rollout and kernel returns `==` the per-substep oracle's."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump({"robots": [entry]}, fh)
        try:
            robot = load_registry(path).get(entry["name"])
        except RegistryError as exc:
            name, _, message = str(exc).partition(": ")
            assert name == entry["name"] and FIELD_NAMES.search(message), str(exc)
            return
    mu, omega = commands[0]
    trot = open_loop_trot(min(max(mu, MU_MIN), MU_MAX),
                          min(max(omega, OMEGA_MIN_HZ), OMEGA_MAX_HZ))
    record = run_rollout(robot, trot, 0.03)
    assert all(math.isfinite(v) for row in record.rows for v in row)
    returns = evaluate_batch(robot, commands, horizon)
    assert all(map(math.isfinite, returns))
    assert returns == [substep_return(robot, mu, omega, horizon) for mu, omega in commands]
