import pytest
import yaml

from quadcpg.registry import (MORPH_ANIMAL, MORPH_MIXED, RegistryError, UnknownRobotError, builtin_registry,
                              get_robot, load_registry, save_registry)


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

