"""The fuzz generator: byte-identity pins, determinism, IR plumbing, and
bias-profile distribution assertions (profiles must not rot into noise).

The pinned hashes freeze ``build_random_program`` for the first eight
oracle-suite seeds: the differential-oracle tests import the promoted
generator, and these hashes guarantee the promotion (and any future
edit) keeps the legacy programs byte-identical.  If an intentional
generator change breaks them, the artifact stale-check
(``generator_version``) is what protects recorded reproducers -- update
the hashes *and* expect old seed-based artifacts to refuse regeneration.
"""

import hashlib
import random

import pytest

from repro.fuzz.generator import (PROFILES, BiasProfile, ProgramSpec,
                                  build_random_program, generate_ir,
                                  generator_version, get_profile,
                                  ir_from_json, ir_to_json, materialize,
                                  validate_ir)
from repro.fuzz.oracles import (MUTATIONS, check_ir, trace_pathology_stats,
                                tssbf_alias_stats)
from repro.kernel import FunctionalCpu

SEED = 20180604

# sha256 of (instruction reprs + data segment) for seeds SEED+0..7.
PINNED_HASHES = [
    "bf4385e7064ff16f", "013ad4f65166d841", "21165a2fb3cd6288",
    "ba981819b4db6d23", "0132a2a211baaada", "a8252ed86f74219c",
    "d697dafd12d81874", "2bc33e0649ac8b76",
]


def _program_hash(program):
    text = "\n".join(repr(ins) for ins in program.instructions)
    return hashlib.sha256(text.encode() + b"|" + program.data
                          ).hexdigest()[:16]


def _trace_for(profile, seed):
    ir = ProgramSpec(profile=profile, seed=seed).generate()
    cpu = FunctionalCpu(materialize(ir))
    return cpu.run_trace(max_instructions=200_000)


def _mean_pathology(profile, key, seeds=range(100, 105)):
    values = [trace_pathology_stats(_trace_for(profile, seed))[key]
              for seed in seeds]
    return sum(values) / len(values)


# -- legacy byte-identity ----------------------------------------------------

def test_legacy_programs_are_byte_identical():
    """The promoted generator reproduces the original oracle-suite
    programs exactly (same RNG stream, same assembly, same data)."""
    for index, expected in enumerate(PINNED_HASHES):
        program = build_random_program(random.Random(SEED + index))
        assert _program_hash(program) == expected, (
            "build_random_program diverged from the legacy generator "
            "at seed offset %d" % index)


def test_generator_version_is_stable_within_a_process():
    assert generator_version() == generator_version()
    assert len(generator_version()) == 16


# -- determinism and IR plumbing ---------------------------------------------

def test_spec_generation_is_deterministic():
    spec = ProgramSpec(profile=PROFILES["mixed"], seed=42)
    assert spec.generate() == spec.generate()
    assert spec.program_id == "fuzz-mixed-42"


def test_ir_json_roundtrip():
    ir = ProgramSpec(profile=PROFILES["stack-heavy"], seed=3).generate()
    assert ir_from_json(ir_to_json(ir)) == ir


def test_spec_dict_roundtrip():
    spec = ProgramSpec(profile=get_profile("colliding", p_collide=0.6),
                       seed=9)
    again = ProgramSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.generate() == spec.generate()


def test_validate_ir_rejects_junk():
    ir = ProgramSpec(profile=PROFILES["baseline"], seed=0).generate()
    with pytest.raises(ValueError):
        validate_ir({"format": 99})
    bad = dict(ir)
    bad["body"] = [["warp-drive", "$t0"]]
    with pytest.raises(ValueError):
        validate_ir(bad)


def test_get_profile_unknown_name():
    with pytest.raises(ValueError):
        get_profile("no-such-profile")


def test_profile_dict_roundtrip():
    for profile in PROFILES.values():
        assert BiasProfile.from_dict(profile.to_dict()) == profile


# -- every profile yields runnable, oracle-clean programs --------------------

@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profile_programs_execute(name):
    for seed in (100, 101):
        entries = _trace_for(PROFILES[name], seed)
        assert entries, "%s seed %d produced an empty trace" % (name, seed)


@pytest.mark.parametrize("name", ["colliding", "tag-alias", "stack-heavy"])
def test_profile_programs_pass_oracles(name):
    ir = ProgramSpec(profile=PROFILES[name], seed=100).generate()
    report = check_ir(ir)
    assert report.ok, report.divergences


def test_packed_fields_oracle_catches_lossy_packing(monkeypatch):
    # Byte Access Bits are re-derived from the address and size when the
    # packed trace decodes, so a recorded entry whose BAB disagrees with
    # them cannot survive packing: oracle 3 must name the entry and field.
    def corrupt_first_load_bab(entries):
        for entry in entries:
            if entry.is_load:
                entry.bab ^= 0x1
                return

    monkeypatch.setitem(MUTATIONS, "lossy-bab", corrupt_first_load_bab)
    ir = ProgramSpec(profile=PROFILES["colliding"], seed=100).generate()
    report = check_ir(ir, mutation="lossy-bab")
    fields = [d for d in report.divergences if d.oracle == "packed-fields"]
    assert len(fields) == 1
    assert fields[0].model == "-"
    assert " bab: packed " in fields[0].detail


# -- bias-profile distribution assertions ------------------------------------

def test_colliding_profile_hits_collision_floor():
    frac = _mean_pathology(PROFILES["colliding"],
                           "colliding_load_fraction")
    assert frac >= 0.5, "colliding profile rotted: %.2f" % frac


def test_collision_rate_is_tunable():
    """The p_collide knob is live: on a cold offset pool (no hot-slot
    reuse masking it), zero bias means zero collisions and a high bias
    means most loads collide."""
    low = _mean_pathology(
        get_profile("colliding", p_collide=0.0, offset_hot_fraction=0.0),
        "colliding_load_fraction")
    high = _mean_pathology(
        get_profile("colliding", p_collide=0.6, offset_hot_fraction=0.0),
        "colliding_load_fraction")
    assert low < 0.1, "cold pool with p_collide=0 still collides: %r" % low
    assert high >= 0.5, "p_collide=0.6 undershoots: %r" % high


def test_silent_store_profile_distribution():
    frac = _mean_pathology(PROFILES["silent-store"],
                           "silent_store_fraction")
    assert frac >= 0.9, "silent-store profile rotted: %.2f" % frac


def test_partial_overlap_profile_distribution():
    frac = _mean_pathology(PROFILES["partial-overlap"],
                           "partial_overlap_fraction")
    baseline = _mean_pathology(PROFILES["baseline"],
                               "partial_overlap_fraction")
    assert frac >= 0.25, "partial-overlap profile rotted: %.2f" % frac
    assert frac > baseline


def test_pointer_chase_profile_distribution():
    chased = _mean_pathology(PROFILES["pointer-chase"],
                             "chased_pointer_stores")
    assert chased >= 5.0, "pointer-chase profile rotted: %.1f" % chased


def test_tag_alias_profile_collides_in_the_real_filter():
    """Tag-alias addresses must collide in the T-SSBF's own hash: same
    set index, distinct tags (measured with the filter's _index_and_tag,
    so the profile cannot drift away from the real structure)."""
    values = [tssbf_alias_stats(_trace_for(PROFILES["tag-alias"], seed))
              ["aliased_set_fraction"] for seed in range(100, 105)]
    frac = sum(values) / len(values)
    baseline = tssbf_alias_stats(_trace_for(PROFILES["baseline"], 100))
    assert frac >= 0.3, "tag-alias profile rotted: %.2f" % frac
    assert baseline["aliased_set_fraction"] < frac


def test_stack_heavy_profile_builds_real_frames():
    """Stack-heavy programs must actually push frames: stores well above
    the data segment (the stack grows down from STACK_TOP)."""
    entries = _trace_for(PROFILES["stack-heavy"], 100)
    stack_stores = sum(1 for e in entries if e.is_store
                       and e.mem_addr is not None
                       and e.mem_addr >= 0x2000_0000)
    assert stack_stores > 0
    ir = ProgramSpec(profile=PROFILES["stack-heavy"], seed=100).generate()
    assert len(ir["funcs"]) == PROFILES["stack-heavy"].stack_funcs + 1
