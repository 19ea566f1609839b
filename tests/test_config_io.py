"""Configuration parsing and binary snapshot round trips."""

import struct
import zlib

import numpy as np
import pytest

from llgvm import PeriodicGrid, ScalarField, VectorField3, hopf_invariant, read_snapshot, write_snapshot
from llgvm import snapshots
from llgvm.config import SCHEMA, default_config, parse_config, parse_config_text
from llgvm.errors import ConfigError, ContractViolation, SnapshotError
from llgvm.kinetic import ParticleEnsemble
from llgvm.magnetization import LLCoefficients, MagnetizationField
from llgvm.maxwell import EMMode
from llgvm.textures import hopfion, random_smooth_unit

from conftest import BOX, band_limited_vector, rewrite_snapshot_header, rewrite_snapshot_payload


class TestConfigParsing:
    def test_empty_config_yields_defaults(self):
        cfg = default_config()
        assert cfg["grid.n"] == 32
        assert cfg["run.dt"] == 5e-5
        assert cfg["kinetic.seed"] == cfg["run.seed"]
        assert cfg.grid_shape() == (32, 32, 32)
        assert cfg.box_lengths() == (16.0, 16.0, 16.0)
        assert cfg.warnings == []
        assert cfg["mollifier.epsilon"] == 4.0 * 0.5
        assert cfg["kinetic.f0.center"] == (8.0, 8.0, 8.0)
        assert cfg["kinetic.f0.position"] == cfg["kinetic.f0.center"]
        assert cfg["kinetic.f0.velocity"] == (0.0, 0.0, 0.0)
        assert cfg["llg.stabilizer_c"] == LLCoefficients.from_alpha(0.1).stabilizer_c

    def test_derived_defaults_on_an_anisotropic_grid(self):
        # spacings (1.5, 0.5, 0.5): the smallest is not along x
        cfg = parse_config_text("grid.n = 16\ngrid.box = 8.0\ngrid.nx = 8\ngrid.lx = 12.0\nllg.alpha = 0.3\n")
        assert cfg["mollifier.epsilon"] == 4.0 * min(PeriodicGrid((8, 16, 16), (12.0, 8.0, 8.0)).spacing) == 2.0
        assert cfg["kinetic.f0.center"] == cfg["kinetic.f0.position"] == (6.0, 4.0, 4.0)
        assert cfg["kinetic.f0.velocity"] == (0.0, 0.0, 0.0)
        assert cfg["llg.stabilizer_c"] == LLCoefficients.from_alpha(0.3).stabilizer_c

    def test_explicit_values_pass_through(self):
        text = (
            "mollifier.epsilon = 1.25\nkinetic.f0.center = 1,2,3\nkinetic.f0.velocity = 0.1,0,0\n"
            "llg.stabilizer_c = 6.0\nkinetic.seed = 7\n"
        )
        cfg = parse_config_text(text)
        assert cfg["mollifier.epsilon"] == 1.25
        assert cfg["kinetic.f0.center"] == cfg["kinetic.f0.position"] == (1.0, 2.0, 3.0)
        assert cfg["kinetic.f0.velocity"] == (0.1, 0.0, 0.0)
        assert cfg["llg.stabilizer_c"] == 6.0
        assert cfg["kinetic.seed"] == 7
        cfg = parse_config_text("kinetic.f0.center = 1,2,3\nkinetic.f0.position = 0.5,0.5,0.5\n")
        assert cfg["kinetic.f0.position"] == (0.5, 0.5, 0.5)

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# heading\n\ngrid.n = 8  # trailing comment\n")
        assert cfg["grid.n"] == 8

    def test_small_zeeman_warns_but_proceeds(self):
        cfg = parse_config_text("llg.h = 0.2\n")
        assert cfg["llg.h"] == 0.2
        assert any("1/4" in w for w in cfg.warnings)

    def test_odd_grid_rejected_with_message(self):
        with pytest.raises(ConfigError, match="even"):
            parse_config_text("grid.n = 33\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("grid.m = 32\n")

    def test_all_errors_collected(self):
        text = "grid.n = 33\nllg.alpha = -1\nbogus.key = 1\nem.eps_r = 0.5\nem.init_modes = 0,0,0,1\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        message = str(err.value)
        assert "grid.n" in message
        assert "bogus.key" in message
        assert "em.eps_r" in message
        assert "<string>:5: bad value for em.init_modes: bad em.init_modes entry '0,0,0,1'" in message

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("grid.n 32\n")

    def test_type_error_reported_with_location(self):
        with pytest.raises(ConfigError, match="<string>:2"):
            parse_config_text("grid.n = 16\nrun.dt = fast\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("grid.n = 16\ngrid.n = 32\n")

    def test_llg_dt_alias(self):
        cfg = parse_config_text("llg.dt = 1e-5\n")
        assert cfg["run.dt"] == 1e-5
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config_text("llg.dt = 1e-5\nrun.dt = 2e-5\n")
        both = parse_config_text("llg.dt = 1e-5\nrun.dt = 1e-5\n")
        assert both["run.dt"] == 1e-5

    def test_stabilizer_must_dominate_lambda(self):
        with pytest.raises(ConfigError, match="stabilizer"):
            parse_config_text("llg.alpha = 0.1\nllg.stabilizer_c = 0.01\n")

    def test_bad_stabilizer_reported_with_the_other_errors(self):
        text = "grid.n = 33\nllg.stabilizer_c = 0.01\nkinetic.f0.kind = kappa\nllg.initial = vortex\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        message = str(err.value)
        assert "grid.n = 33" in message
        assert "llg.stabilizer_c: stabilizer c = 0.01 must be >= lambda = alpha/(1+alpha^2) = 0.0990099" in message
        assert "kinetic.f0.kind = 'kappa'" in message
        assert "llg.initial = 'vortex'" in message

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("kinetic.f0.drift", "nan"),
            ("kinetic.f0.v_thermal", "inf"),
            ("kinetic.f0.center", "nan,1,1"),
            ("llg.h", "nan"),
            ("llg.init_amplitude", "nan"),
            ("mollifier.epsilon", "inf"),
            ("llg.stabilizer_c", "inf"),
        ],
    )
    def test_non_finite_number_rejected_with_location(self, key, value):
        with pytest.raises(ConfigError, match=f"<string>:2: bad value for {key}: not a finite number"):
            parse_config_text(f"grid.n = 8\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "entry", ["1,0,0,nan", "1,0,0,-inf", "0,0,0,1.0", "1,0,0,0.1,2", "1,1,0,0.1,7", "1,0,1"]
    )
    def test_bad_em_mode_rejected(self, entry):
        with pytest.raises(ConfigError, match="<string>:1: bad value for em.init_modes: bad em.init_modes entry"):
            parse_config_text(f"em.init_modes = 0,1,1,0.5; {entry}\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("run.topology_diagnostics = maybe", "bad value for run.topology_diagnostics: not a boolean"),
            ("kinetic.f0.center = 1,2", "bad value for kinetic.f0.center: expected three"),
            ("llg.initial = vortex", "llg.initial = 'vortex': choose one of"),
            ("kinetic.f0.kind = kappa", "kinetic.f0.kind = 'kappa': choose one of"),
            ("mollifier.epsilon = -1", "mollifier.epsilon must be positive"),
        ],
        ids=["not-a-boolean", "two-number-triple", "unknown-texture", "unknown-f0-kind", "negative-epsilon"],
    )
    def test_bad_value_rejected(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"grid.n = 8\n{line}\n")

    def test_em_modes_parse_to_modes(self):
        cfg = parse_config_text("em.init_modes = 1,2,0,0.5; ;0,1,1,0.25,1;\n")
        assert cfg["em.init_modes"] == (EMMode((1, 2, 0), 0.5, 0), EMMode((0, 1, 1), 0.25, 1))
        assert default_config()["em.init_modes"] == ()

    @pytest.mark.parametrize("key", ["run.seed", "kinetic.seed"])
    def test_negative_seed_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key} = -1: seeds must be >= 0"):
            parse_config_text(f"grid.n = 8\n{key} = -1\n")

    def test_given_seed_sets_both_seeds_before_the_range_rules(self, tmp_path):
        text = "grid.n = 8\nrun.seed = 5\nkinetic.seed = 6\n"
        cfg = parse_config_text(text, seed=7)
        assert (cfg["run.seed"], cfg["kinetic.seed"]) == (7, 7)
        path = tmp_path / "seed.cfg"
        path.write_text(text)
        assert parse_config(path, seed=0).values == parse_config_text(text, seed=0).values
        with pytest.raises(ConfigError) as err:
            parse_config_text("grid.n = 3\n", seed=-2)
        assert str(err.value).endswith(
            "grid.n = 3: node counts must be even and >= 4\n"
            "  kinetic.seed = -2: seeds must be >= 0\n  run.seed = -2: seeds must be >= 0"
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("grid.n = 3", "grid.n = 3: node counts must be even and >= 4"),
            ("grid.nx = 5", "grid.nx = 5: node counts must be even and >= 4"),
            ("grid.ny = 2", "grid.ny = 2: node counts must be even and >= 4"),
            ("grid.nz = 7", "grid.nz = 7: node counts must be even and >= 4"),
            ("grid.box = 0", "grid.box = 0.0: box lengths must be positive"),
            ("grid.lx = -1", "grid.lx = -1.0: box lengths must be positive"),
            ("grid.ly = 0", "grid.ly = 0.0: box lengths must be positive"),
            ("grid.lz = -2.5", "grid.lz = -2.5: box lengths must be positive"),
            ("llg.alpha = -1", "llg.alpha must be positive"),
            (
                "llg.initial = vortex",
                "llg.initial = 'vortex': choose one of"
                " ('uniform', 'skyrmion_tube', 'hopfion', 'random_smooth')",
            ),
            ("llg.init_radius = 0", "llg.init_radius must be positive"),
            ("llg.init_kcut = 0", "llg.init_kcut must be >= 1"),
            ("em.eps_r = 0.5", "em.eps_r must be >= 1"),
            ("em.mu_r = 0.9", "em.mu_r must be >= 1"),
            ("kinetic.n_particles = -1", "kinetic.n_particles must be >= 0"),
            ("kinetic.seed = -3", "kinetic.seed = -3: seeds must be >= 0"),
            ("run.seed = -1", "run.seed = -1: seeds must be >= 0"),
            (
                "kinetic.f0.kind = kappa",
                "kinetic.f0.kind = 'kappa': choose one of"
                " ('bump_maxwellian', 'uniform_maxwellian', 'two_stream', 'delta')",
            ),
            ("kinetic.f0.radius = 0", "kinetic.f0.radius must be positive"),
            ("kinetic.f0.v_thermal = -0.1", "kinetic.f0.v_thermal must be >= 0"),
            ("kinetic.f0.mass = -1", "kinetic.f0.mass must be >= 0"),
            ("mollifier.epsilon = 0", "mollifier.epsilon must be positive"),
            ("run.dt = 0", "run.dt must be positive"),
            ("run.n_steps = -1", "run.n_steps must be >= 0"),
            ("run.snapshot_every = -1", "run.snapshot_every must be >= 0"),
        ],
    )
    def test_range_error_text(self, line, message):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"{line}\n")
        assert str(err.value) == f"invalid configuration:\n  {message}"

    def test_range_errors_come_in_schema_order(self):
        text = (
            "run.seed = -1\nrun.dt = 0\nkinetic.seed = -3\nkinetic.f0.mass = -1\nkinetic.n_particles = -1\n"
            "em.eps_r = 0.5\nllg.init_kcut = 0\nllg.alpha = -1\ngrid.lz = 0\ngrid.n = 3\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert str(err.value).split("\n  ")[1:] == [
            "grid.n = 3: node counts must be even and >= 4",
            "grid.lz = 0.0: box lengths must be positive",
            "llg.alpha must be positive",
            "llg.init_kcut must be >= 1",
            "em.eps_r must be >= 1",
            "kinetic.n_particles must be >= 0",
            "kinetic.seed = -3: seeds must be >= 0",
            "kinetic.f0.mass must be >= 0",
            "run.dt must be positive",
            "run.seed = -1: seeds must be >= 0",
        ]

    def test_every_schema_key_parses_its_default(self):
        # defaults in the schema must satisfy their own row's range rule
        cfg = default_config()
        for key, (_, default, rule) in SCHEMA.items():
            assert key in cfg.values
            if default is not None and rule is not None:
                test, _ = rule
                assert test(default), key


class TestSnapshots:
    def test_vector_field_roundtrip(self, grid16, tmp_path):
        field = band_limited_vector(grid16, 200)
        path = tmp_path / "v.snap"
        write_snapshot(field, path, "E", 0.75)
        snap = read_snapshot(path)
        assert snap.name == "E"
        assert snap.time == 0.75
        assert isinstance(snap.payload, VectorField3)
        assert np.array_equal(snap.payload.values, field.values)
        assert snap.payload.grid == grid16

    def test_scalar_field_roundtrip(self, grid16, tmp_path):
        field = ScalarField(grid16, band_limited_vector(grid16, 201).values[0])
        path = tmp_path / "s.snap"
        write_snapshot(field, path, "rho", 1.5)
        snap = read_snapshot(path)
        assert isinstance(snap.payload, ScalarField)
        assert np.array_equal(snap.payload.values, field.values)

    def test_magnetization_roundtrip(self, grid16, tmp_path):
        mf = MagnetizationField(grid16, random_smooth_unit(grid16, 4), 0.5, 0.1)
        path = tmp_path / "m.snap"
        write_snapshot(mf, path, "m", 2.0)
        snap = read_snapshot(path)
        assert isinstance(snap.payload, MagnetizationField)
        assert np.array_equal(snap.payload.m, mf.m)
        assert snap.payload.h_zeeman == mf.h_zeeman
        assert snap.payload.alpha == mf.alpha

    def test_ensemble_roundtrip(self, grid16, tmp_path):
        rng = np.random.default_rng(1)
        p = ParticleEnsemble((rng.random((37, 3)) * BOX).T, rng.standard_normal((37, 3)).T, rng.random(37))
        path = tmp_path / "p.snap"
        write_snapshot(p, path, "particles", 0.0)
        snap = read_snapshot(path)
        q = snap.payload
        assert isinstance(q, ParticleEnsemble)
        assert np.array_equal(q.positions, p.positions)
        assert np.array_equal(q.velocities, p.velocities)
        assert np.array_equal(q.weights, p.weights)

    def test_ensemble_record_on_disk(self, tmp_path):
        # one (x, y, z, vx, vy, vz, w) record per particle; a round trip cannot
        # see a transposed record, since writer and reader would flip together
        pos = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        vel = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        w = np.array([0.7, 0.8])
        path = tmp_path / "p2.snap"
        write_snapshot(ParticleEnsemble(pos.T, vel.T, w), path)
        payload = np.frombuffer(path.read_bytes()[snapshots._HEADER.size :], dtype="<f8")
        expected = [*pos[0], *vel[0], w[0], *pos[1], *vel[1], w[1]]
        assert np.array_equal(payload, expected)

    def test_ensemble_header_disagreeing_with_payload(self, tmp_path):
        rng = np.random.default_rng(3)
        p = ParticleEnsemble(rng.random((3, 5)), rng.random((3, 5)), rng.random(5))
        path = tmp_path / "p5.snap"
        write_snapshot(p, path)
        rewrite_snapshot_header(path, path, dims=(4, 0, 0))  # 4 particles over 35 doubles
        with pytest.raises(SnapshotError, match="inconsistent header"):
            read_snapshot(path)

    def test_magnetization_header_disagreeing_with_payload(self, grid16, tmp_path):
        mf = MagnetizationField(grid16, random_smooth_unit(grid16, 5), 0.5, 0.1)
        path = tmp_path / "m.snap"
        write_snapshot(mf, path, "m")
        rewrite_snapshot_header(path, path, dims=(6, 16, 16))
        with pytest.raises(SnapshotError, match="inconsistent header") as err:
            read_snapshot(path)
        assert str(path) in str(err.value)

    def test_payload_layout_matches_struct(self):
        grid = PeriodicGrid((4, 6, 8), (4.0, 5.0, 6.0))
        vec = band_limited_vector(grid, 205)
        scalar = vec.component(0)
        mf = MagnetizationField(grid, random_smooth_unit(grid, 6, 0.3, 2), 0.5, 0.1)
        rng = np.random.default_rng(7)
        p = ParticleEnsemble(rng.random((3, 5)), rng.standard_normal((3, 5)), rng.random(5))

        def doubles(values):
            flat = [float(x) for x in np.ravel(values)]
            return struct.pack(f"<{len(flat)}d", *flat)

        cases = [
            (scalar, snapshots.KIND_SCALAR, doubles(scalar.values)),
            (vec, snapshots.KIND_VECTOR, doubles(vec.values)),
            (mf, snapshots.KIND_MAGNETIZATION, struct.pack("<2d", mf.h_zeeman, mf.alpha) + doubles(mf.m)),
        ]
        records = b"".join(
            struct.pack("<7d", *p.positions[:, i], *p.velocities[:, i], p.weights[i]) for i in range(5)
        )
        cases.append((p, snapshots.KIND_ENSEMBLE, records))
        for obj, kind, payload in cases:
            got_kind, dims, box, parts = snapshots._payload(obj)
            if kind == snapshots.KIND_ENSEMBLE:
                assert (got_kind, dims, box) == (kind, (5, 0, 0), (0.0, 0.0, 0.0))
            else:
                assert (got_kind, dims, box) == (kind, grid.n_cells, grid.box_length)
            assert all(part.flags.c_contiguous and part.dtype == np.dtype("<f8") for part in parts)
            assert b"".join(part.tobytes() for part in parts) == payload

    @staticmethod
    def _joined_layout(obj, name, time):
        """The file as a writer that joins the payload into one bytes object lays it out."""
        if isinstance(obj, ParticleEnsemble):
            kind, dims, box = snapshots.KIND_ENSEMBLE, (obj.count, 0, 0), (0.0, 0.0, 0.0)
            payload = np.concatenate([obj.positions, obj.velocities, obj.weights[None, :]]).T.tobytes()
        else:
            dims, box = obj.grid.n_cells, obj.grid.box_length
            if isinstance(obj, MagnetizationField):
                kind = snapshots.KIND_MAGNETIZATION
                payload = np.concatenate([[obj.h_zeeman, obj.alpha], obj.m.ravel()]).tobytes()
            else:
                kind = snapshots.KIND_VECTOR if isinstance(obj, VectorField3) else snapshots.KIND_SCALAR
                payload = obj.values.tobytes()
        header = snapshots._HEADER.pack(
            snapshots.MAGIC, 0, kind, name.encode().ljust(16, b"\0"), time, *dims, *box,
            len(payload) // 8, zlib.crc32(payload),
        )
        return header + payload

    @pytest.mark.parametrize("kind", ["scalar", "vector", "magnetization", "ensemble", "empty-ensemble"])
    def test_file_bytes_match_the_joined_layout(self, tmp_path, kind):
        grid = PeriodicGrid((4, 6, 8), (4.0, 5.0, 6.0))
        rng = np.random.default_rng(11)
        vec = band_limited_vector(grid, 206)
        obj = {
            "scalar": lambda: vec.component(1),
            "vector": lambda: vec,
            "magnetization": lambda: MagnetizationField(grid, random_smooth_unit(grid, 8, 0.3, 2), 0.5, 0.1),
            "ensemble": lambda: ParticleEnsemble(rng.random((3, 9)), rng.standard_normal((3, 9)), rng.random(9)),
            "empty-ensemble": ParticleEnsemble.empty,
        }[kind]()
        path = tmp_path / f"{kind}.snap"
        write_snapshot(obj, path, kind, 1.25)
        assert path.read_bytes() == self._joined_layout(obj, kind, 1.25)
        back = read_snapshot(path).payload
        assert type(back) is type(obj)
        names = {
            ParticleEnsemble: ("positions", "velocities", "weights"),
            MagnetizationField: ("m", "h_zeeman", "alpha"),
        }.get(type(obj), ("values",))
        for name in names:
            assert np.asarray(getattr(back, name)).tobytes() == np.asarray(getattr(obj, name)).tobytes()

    def test_header_dims_not_a_grid(self, tmp_path):
        grid = PeriodicGrid((4, 16, 8), (BOX, BOX, BOX))
        path = tmp_path / "d.snap"
        write_snapshot(ScalarField.zeros(grid), path, "rho")
        rewrite_snapshot_header(path, path, dims=(2, 16, 16))  # still 512 nodes
        with pytest.raises(SnapshotError, match="invalid grid") as err:
            read_snapshot(path)
        assert str(path) in str(err.value)

    def test_header_box_length_not_positive(self, grid16, tmp_path):
        path = tmp_path / "b.snap"
        write_snapshot(band_limited_vector(grid16, 206), path, "E")
        rewrite_snapshot_header(path, path, box=(-8.0, BOX, BOX))
        with pytest.raises(SnapshotError, match="invalid grid") as err:
            read_snapshot(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "kind, index, value, message",
        [
            ("m", 2, 1.5, "deviates from 1"),  # m_x at node 0
            ("m", 1, -0.1, "alpha must be positive"),
            ("E", 10, np.nan, "NaN"),
            ("particles", 6, -1.0, "non-negative"),  # the weight of particle 0
            ("m", 1, np.nan, "alpha must be positive"),
            ("m", 0, np.inf, "h must be finite"),
            ("particles", 0, np.nan, "NaN"),  # the x of particle 0
        ],
        ids=["m-not-unit", "alpha-not-positive", "nan-field-value", "negative-weight", "alpha-nan", "h-inf",
             "particle-nan"],
    )
    def test_payload_failing_its_object_checks(self, grid16, tmp_path, kind, index, value, message):
        rng = np.random.default_rng(8)
        objs = {
            "m": MagnetizationField(grid16, random_smooth_unit(grid16, 5), 0.5, 0.1),
            "E": band_limited_vector(grid16, 207),
            "particles": ParticleEnsemble(rng.random((3, 5)), rng.random((3, 5)), rng.random(5)),
        }
        path = tmp_path / f"{kind}.snap"
        write_snapshot(objs[kind], path, kind)
        rewrite_snapshot_payload(path, index, value)  # the CRC matches the edited payload
        with pytest.raises(SnapshotError, match="invalid payload") as err:
            read_snapshot(path)
        assert str(path) in str(err.value) and message in str(err.value)

    def test_corrupted_payload_detected(self, grid16, tmp_path):
        field = band_limited_vector(grid16, 202)
        path = tmp_path / "c.snap"
        write_snapshot(field, path, "E", 0.0)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(path)

    def test_truncated_file_detected(self, grid16, tmp_path):
        field = band_limited_vector(grid16, 203)
        path = tmp_path / "t.snap"
        write_snapshot(field, path, "E", 0.0)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path)

    def test_version_mismatch_detected(self, grid16, tmp_path):
        field = band_limited_vector(grid16, 204)
        path = tmp_path / "v.snap"
        write_snapshot(field, path, "E", 0.0)
        raw = bytearray(path.read_bytes())
        raw[6:8] = b"99"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("missing", "cannot read snapshot"),
            ("directory", "cannot read snapshot"),
            ("short", "no complete header"),
            ("big-endian", "endianness"),
            ("kind-9", "unknown payload kind 9"),
        ],
    )
    def test_bad_header_detected(self, grid16, tmp_path, damage, message):
        path = tmp_path / "h.snap"
        write_snapshot(band_limited_vector(grid16, 208), path, "E")
        raw = bytearray(path.read_bytes())
        if damage == "missing":
            path = tmp_path / "absent.snap"
        elif damage == "directory":
            path = tmp_path
        elif damage == "short":
            path.write_bytes(raw[: snapshots._HEADER.size - 1])
        else:  # byte 8 holds the flags, byte 9 the kind
            raw[8:10] = b"\x01\x02" if damage == "big-endian" else b"\x00\x09"
            path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match=message) as err:
            read_snapshot(path)
        assert str(path) in str(err.value)

    def test_unknown_object_not_written(self, tmp_path):
        path = tmp_path / "o.snap"
        with pytest.raises(ContractViolation, match="cannot snapshot object of type object"):
            write_snapshot(object(), path)
        assert not path.exists()

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"NOTASNAP" + bytes(100))
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    def test_hopf_invariant_survives_roundtrip(self, tmp_path):
        grid = PeriodicGrid.cubic(48, BOX)
        mf = MagnetizationField(grid, hopfion(grid, 7.0), 0.5, 0.1)
        before = hopf_invariant(mf)
        path = tmp_path / "m.snap"
        write_snapshot(mf, path, "m", 0.0)
        after = hopf_invariant(read_snapshot(path).payload)
        assert before == after
