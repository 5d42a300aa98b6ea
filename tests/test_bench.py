from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from hdr2l import bench, container
from hdr2l.bench import (
    BenchConfig,
    RunRecord,
    emit_boxplot_svg,
    records_to_csv,
    run_grid,
    run_image,
    run_images,
    summarize,
    synthetic_corpus,
    write_corpus,
)
from hdr2l.basejpeg import decode_base
from hdr2l.container import ARMS, CodecParams
from hdr2l.errors import BenchError, ParameterError
from hdr2l.imagio import write_pfm
from hdr2l.tmo import TmoKind, TmoParams
from hdr2l.tmqi import MIN_SIDE as TMQI_MIN_SIDE
from hdr2l.tmqi import boxstats, tmqi
from conftest import ppm_bytes


SINGLE_TMO = BenchConfig(tmos=(TmoKind.DEFAULT,), compute_tmqi=False)


@pytest.mark.parametrize("name", ["tmos", "qs"])
def test_config_names_its_empty_field(name):
    with pytest.raises(ParameterError, match=f"at least one entry in {name}$"):
        BenchConfig(**{name: ()})


def test_grid_arm_counting_matches_contract():
    # one TMO -> 2 HP + 4 XT arms per image
    corpus = synthetic_corpus(3, size=24, seed=1)
    result = run_images(corpus, SINGLE_TMO)
    assert len(result.records) == 3 * (2 + 4)
    arms = {(r.arm, r.q) for r in result.records}
    assert arms == {
        ("hp", 80), ("hp", 90),
        ("xt-r0", 80), ("xt-r0", 90), ("xt-r4", 80), ("xt-r4", 90),
    }
    assert result.summary["lossless_failures"] == []


def test_run_image_scores_tmqi_columns():
    (image_id, hdr), = synthetic_corpus(1, size=TMQI_MIN_SIDE, seed=1)
    config = BenchConfig(tmos=(TmoKind.DEFAULT,), qs=(80,))
    records = run_image(image_id, hdr, config)
    assert [r.arm for r in records] == ["hp", "xt-r0", "xt-r4"]
    for r in records:
        assert r.lossless_ok
        assert 0.0 < r.tmqi_pre <= 1.0 and 0.0 < r.tmqi_decoded <= 1.0
    hp, xt0, xt4 = records
    assert hp.tmqi_decoded == xt0.tmqi_decoded  # one base layer
    for r in (hp, xt4):
        mode, refine = ARMS[r.arm]
        params = CodecParams(mode=mode, tmo=TmoParams(kind=TmoKind.DEFAULT), q=80, refine_bits=refine)
        base = decode_base(container.extract_ldr(container.encode(hdr, params)))
        assert r.tmqi_decoded == tmqi(hdr, base).q_overall


def test_run_image_scores_each_pre_compression_image_once(monkeypatch):
    """One image, one operator, two qualities: the pre-compression image is
    scored once per R (2 calls) and each decoded base once per cell (6)."""
    from hdr2l.basejpeg import split_refinement
    from hdr2l.imagio import luminance
    from hdr2l.tmo import bind_image_stats, tonemap

    (image_id, hdr), = synthetic_corpus(1, size=TMQI_MIN_SIDE, seed=1)
    calls = []

    def counted(*args):
        calls.append(args)
        return tmqi(*args)

    monkeypatch.setattr(bench, "score_tmqi", counted)
    records = run_image(image_id, hdr, BenchConfig(tmos=(TmoKind.DEFAULT,), qs=(80, 90)))
    assert len(records) == 6 and len(calls) == 8
    lum = luminance(hdr)
    bound = bind_image_stats(TmoParams(kind=TmoKind.DEFAULT), lum)
    for r in records:
        pre8, _ = split_refinement(tonemap(hdr, lum, bound, ARMS[r.arm][1]))
        assert r.tmqi_pre == tmqi(hdr, pre8).q_overall


def test_synthetic_corpus_deterministic_per_seed():
    a = synthetic_corpus(4, size=16, seed=7)
    b = synthetic_corpus(4, size=16, seed=7)
    c = synthetic_corpus(4, size=16, seed=8)
    assert all(x[1] == y[1] for x, y in zip(a, b))
    assert any(x[1] != y[1] for x, y in zip(a, c))


def test_run_grid_reads_directory_and_skips_garbage(tmp_path):
    write_corpus(tmp_path, 2, size=24, seed=3)
    (tmp_path / "broken.pfm").write_bytes(b"PF\n4 4\n-1.0\n123")
    (tmp_path / "ignored.txt").write_text("not an image")
    result = run_grid(tmp_path, SINGLE_TMO)
    assert len(result.records) == 2 * 6
    assert [name for name, _ in result.skipped] == ["broken.pfm"]


def test_run_grid_skips_rgbe_header_without_newline(tmp_path):
    write_corpus(tmp_path, 1, size=24, seed=3)
    (tmp_path / "cut.hdr").write_bytes(b"#?RADIANCE")
    result = run_grid(tmp_path, SINGLE_TMO)
    assert len(result.records) == 6
    assert result.skipped == [("cut.hdr", "not a Radiance RGBE stream with a -Y h +X w header (byte offset 0)")]


def test_run_grid_skips_an_entry_it_cannot_read(tmp_path):
    write_corpus(tmp_path, 1, size=24, seed=3)
    (tmp_path / "d.hdr").mkdir()
    result = run_grid(tmp_path, SINGLE_TMO)
    assert len(result.records) == 6
    assert [name for name, _ in result.skipped] == ["d.hdr"]
    assert result.skipped[0][1]  # the OSError's text


def test_run_grid_skips_a_file_that_repeats_an_image_id(tmp_path):
    (first,) = write_corpus(tmp_path / "a", 1, size=24, seed=3)
    (second,) = write_corpus(tmp_path / "b", 1, size=24, seed=4)
    (tmp_path / "scene.PFM").write_bytes(first.read_bytes())
    (tmp_path / "scene.pfm").write_bytes(second.read_bytes())
    result = run_grid(tmp_path, SINGLE_TMO)
    assert len(result.records) == 6
    assert {r.image_id for r in result.records} == {"scene"}
    assert result.skipped == [("scene.pfm", "repeats image id 'scene'")]
    want = run_images([("scene", bench.load_hdr_file(first))], SINGLE_TMO)
    assert [r.bpp for r in result.records] == [r.bpp for r in want.records]


def test_run_grid_empty_directory_errors(tmp_path):
    with pytest.raises(BenchError):
        run_grid(tmp_path, SINGLE_TMO)


def test_csv_round_trip():
    records = [
        RunRecord("img_a", "default", "hp", 80, 6.25, 0.8123456789, 0.7999,
                  True, 0.125, 0.0625),
        RunRecord("img_b", "drago", "xt-r4", 90, 17.5, None, None, False, 0.5, 0.25),
    ]
    assert records_to_csv(records) == (
        "image_id,tmo,arm,q,bpp,tmqi_pre,tmqi_decoded,lossless_ok,encode_s,decode_s\n"
        "img_a,default,hp,80,6.25,0.8123456789,0.7999,true,0.125,0.0625\n"
        "img_b,drago,xt-r4,90,17.5,,,false,0.5,0.25\n"
    )


def test_csv_writes_numpy_scores_as_plain_numbers():
    record = RunRecord("img_a", "default", "hp", 80, 6.25, np.float64(0.5), np.float64(0.25), True, 0.125, 0.0625)
    assert records_to_csv([record]).splitlines()[1] == "img_a,default,hp,80,6.25,0.5,0.25,true,0.125,0.0625"


def test_summary_never_reports_failed_streams():
    good = RunRecord("a", "default", "hp", 80, 5.0, None, None, True, 0.1, 0.1)
    bad = RunRecord("b", "default", "hp", 80, 9.0, None, None, False, 0.1, 0.1)
    scored = RunRecord("c", "default", "hp", 80, 5.0, 0.8, 0.7, True, 0.1, 0.1)
    summary = summarize([good, bad, scored])
    stats = summary["arm_stats"]["default/hp/q80"]
    assert stats.median == 5.0  # the failed record's bitrate is excluded
    assert summary["lossless_failures"] == [("b", "default/hp/q80")]
    assert summary["tmqi_unscored"] == 1  # the failed cell is reported as a failure instead


def test_records_carry_the_measured_section_bytes():
    (image_id, hdr), = synthetic_corpus(1, size=24, seed=1)
    config = BenchConfig(tmos=(TmoKind.DEFAULT,), qs=(80,), compute_tmqi=False)
    for r in run_image(image_id, hdr, config):
        mode, refine = ARMS[r.arm]
        params = CodecParams(mode=mode, tmo=TmoParams(kind=TmoKind.DEFAULT), q=80, refine_bits=refine)
        assert r.sections == container.measure(container.encode(hdr, params)).sections()
        assert 8 * sum(r.sections.values()) / (24 * 24) == r.bpp


def test_summary_cross_tmo_cov_covers_every_arm():
    result = run_images(synthetic_corpus(2, size=24, seed=1), BenchConfig(qs=(80,), compute_tmqi=False))
    (key, spread), = result.summary["cross_tmo_cov"].items()
    assert key == "q80"
    assert list(spread) == ["hp", "xt-r0", "xt-r4", "hp_smaller"]
    for arm in ("hp", "xt-r0", "xt-r4"):
        means = [
            np.mean([r.bpp for r in result.records if (r.tmo, r.arm) == (tmo, arm)])
            for tmo in ("default", "drago", "reinhard-local")
        ]
        assert spread[arm] == pytest.approx(np.std(means) / np.mean(means), rel=1e-12)
    assert spread["hp_smaller"] == (spread["hp"] < min(spread["xt-r0"], spread["xt-r4"]))


def test_print_findings_lines(capsys):
    bpp = {("default", "hp"): 4.0, ("default", "xt-r0"): 5.0, ("default", "xt-r4"): 6.0,
           ("drago", "hp"): 6.0, ("drago", "xt-r0"): 5.5, ("drago", "xt-r4"): 7.0}
    records = [RunRecord("a", tmo, arm, 80, v, None, None, True, 0.1, 0.1)
               for (tmo, arm), v in bpp.items()]
    summary = summarize(records)
    assert summary["hp_minus_xt_r0"] == {"default/q80": -1.0, "drago/q80": 0.5}
    bench.print_findings(summary)
    assert capsys.readouterr().out.splitlines()[6:] == [
        "  hp < xt @ default/q80: yes",
        "  hp < xt @ drago/q80: NO",
        "  hp - xt-r0 @ default/q80: -1.0000 bpp",
        "  hp - xt-r0 @ drago/q80: +0.5000 bpp",
        "  cross-TMO cov @ q80: hp=0.2000 xt-r0=0.0476 xt-r4=0.0769 (hp NOT smaller)",
    ]


def test_summary_contains_quartile_method_note():
    corpus = synthetic_corpus(1, size=24, seed=1)
    result = run_images(corpus, SINGLE_TMO)
    assert "median-exclusive" in result.summary["quartile_method"]


# ---------------------------------------------------------------------------
# boxplot SVG


def test_svg_single_degenerate_box_is_valid_xml():
    svg = emit_boxplot_svg({"only/HP/q80": boxstats([4.0])})
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_svg_two_arms_and_outlier_dots():
    stats = {
        "a": boxstats([1, 2, 3, 4, 5, 6, 7, 8, 9, 100]),
        "b": boxstats([2.0, 2.5, 3.0]),
    }
    svg = emit_boxplot_svg(stats)
    root = ET.fromstring(svg)
    assert svg.count("<rect") == 2
    assert svg.count("<circle") == 1  # one outlier dot


def test_svg_byte_deterministic():
    stats = {"arm": boxstats([1.0, 2.0, 2.5, 9.0])}
    assert emit_boxplot_svg(stats) == emit_boxplot_svg(stats)


# ---------------------------------------------------------------------------
# CLI


def test_cli_encode_decode_extract(tmp_path):
    from hdr2l.cli import main

    corpus_dir = tmp_path / "corpus"
    paths = write_corpus(corpus_dir, 1, size=24, seed=6)
    out = tmp_path / "img.h2l"
    assert main(["encode", str(paths[0]), "--out", str(out), "--tmo", "drago", "--q", "85"]) == 0
    restored = tmp_path / "img.pfm"
    assert main(["decode", str(out), "--out", str(restored)]) == 0
    assert restored.read_bytes() == paths[0].read_bytes()
    jpeg = tmp_path / "img.jpg"
    assert main(["extract-ldr", str(out), "--out", str(jpeg)]) == 0
    assert jpeg.read_bytes()[:2] == b"\xFF\xD8"


@pytest.mark.parametrize("arm", list(ARMS))
def test_cli_encode_arm_round_trips(arm, tmp_path):
    from hdr2l.cli import main

    (source,) = write_corpus(tmp_path / "corpus", 1, size=24, seed=6)
    out, restored = tmp_path / "img.h2l", tmp_path / "img.pfm"
    assert main(["encode", str(source), "--out", str(out), "--arm", arm]) == 0
    assert main(["decode", str(out), "--out", str(restored)]) == 0
    assert restored.read_bytes() == source.read_bytes()
    mode, refine = ARMS[arm]
    params = CodecParams(mode=mode, tmo=TmoParams(kind=TmoKind.DEFAULT), q=80, refine_bits=refine)
    assert out.read_bytes() == container.encode(bench.load_hdr_file(source), params)
    assert (container.measure(out.read_bytes()).refinement > 0) == (arm == "xt-r4")


@pytest.mark.parametrize("flags", [["--mode", "hp"], ["--refine", "0"], ["--mode", "hp", "--refine", "4"]])
def test_cli_encode_refuses_mode_and_refine(flags, tmp_path, capsys):
    from hdr2l.cli import main

    (source,) = write_corpus(tmp_path / "corpus", 1, size=24, seed=6)
    with pytest.raises(SystemExit) as exc:
        main(["encode", str(source), "--out", str(tmp_path / "img.h2l"), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "img.h2l").exists()


def test_cli_decode_of_a_truncated_stream_exits_1(tmp_path, capsys):
    from hdr2l.cli import main

    paths = write_corpus(tmp_path / "corpus", 1, size=24, seed=6)
    out = tmp_path / "img.h2l"
    assert main(["encode", str(paths[0]), "--out", str(out)]) == 0
    out.write_bytes(out.read_bytes()[:-7])
    capsys.readouterr()
    assert main(["decode", str(out), "--out", str(tmp_path / "img.pfm")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hdr2l: ") and "CRC-32" in err
    assert not (tmp_path / "img.pfm").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["decode", "{missing}.h2l", "--out", "{tmp}/img.pfm"],
        ["extract-ldr", "{missing}.h2l", "--out", "{tmp}/img.jpg"],
        ["encode", "{missing}.pfm", "--out", "{tmp}/img.h2l"],
        ["encode", "{image}", "--out", "{missing}/img.h2l"],
        ["bench", "{missing}", "--no-tmqi"],
    ],
    ids=["decode", "extract-ldr", "encode", "encode-unwritable", "bench"],
)
def test_cli_missing_or_unwritable_file_exits_1(command, tmp_path, capsys):
    from hdr2l.cli import main

    (image,) = write_corpus(tmp_path / "corpus", 1, size=24, seed=6)
    missing = tmp_path / "missing"
    args = [arg.format(missing=missing, tmp=tmp_path, image=image) for arg in command]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("hdr2l: ") and str(missing) in err and "Traceback" not in err


def test_cli_tmqi_scores_a_ppm_with_a_comment_line(tmp_path, capsys):
    from hdr2l.cli import main
    from hdr2l.imagio import luminance
    from hdr2l.tmo import bind_image_stats, tonemap

    (pfm,) = write_corpus(tmp_path / "corpus", 1, size=TMQI_MIN_SIDE, seed=6)
    hdr = bench.load_hdr_file(pfm)
    lum = luminance(hdr)
    ldr = tonemap(hdr, lum, bind_image_stats(TmoParams(kind=TmoKind.DEFAULT), lum))
    ppm = ppm_bytes(ldr)
    assert ppm.startswith(b"P6\n")
    ldr_path = tmp_path / "ldr.ppm"
    ldr_path.write_bytes(b"P6\n# CREATOR: GIMP PNM Filter Version 1.1\n" + ppm[3:])
    assert main(["tmqi", str(pfm), str(ldr_path)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("Q=")
    assert float(line.split()[0][2:]) == pytest.approx(tmqi(hdr, ldr).q_overall, abs=1e-6)


def test_cli_bench_reads_a_directory(tmp_path, capsys):
    from hdr2l.cli import main

    corpus = tmp_path / "corpus"
    write_corpus(corpus, 2, size=24)
    assert main(["bench", str(corpus), "--tmo", "default", "--no-tmqi"]) == 0
    out = capsys.readouterr().out
    assert "synthetic corpus" not in out
    assert "12 records over 2 images" in out
    assert out.count("  hp < xt @ ") == 2
    assert main(["bench", "--no-tmqi"]) == 1  # neither a directory nor --synthetic
    assert "either an input directory or --synthetic N" in capsys.readouterr().err


@pytest.mark.parametrize("size", [-3, 0])
def test_cli_bench_refuses_a_synthetic_side_below_one(size, tmp_path, capsys):
    from hdr2l.cli import main

    corpus = tmp_path / "corpus"
    capsys.readouterr()
    assert main(["bench", str(corpus), "--synthetic", "1", "--size", str(size), "--no-tmqi"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hdr2l: ") and err.count("\n") == 1 and f"got {size}" in err
    assert not corpus.exists()


def test_cli_bench_synthetic_with_outputs(tmp_path):
    from hdr2l.cli import main

    csv_path = tmp_path / "records.csv"
    svg_path = tmp_path / "boxes.svg"
    corpus = tmp_path / "corpus"
    code = main([
        "bench", str(corpus), "--synthetic", "2", "--size", "24",
        "--tmo", "default", "--no-tmqi",
        "--csv", str(csv_path), "--svg", str(svg_path),
    ])
    assert code == 0
    header, *rows = csv_path.read_text().splitlines()
    assert header == ",".join(bench.CSV_FIELDS)
    assert len(rows) == 12
    ET.fromstring(svg_path.read_text())


def test_cli_bench_synthetic_without_a_directory_writes_no_files(tmp_path, monkeypatch):
    import tempfile

    from hdr2l.cli import main

    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    grid = ["--size", "24", "--tmo", "default", "--no-tmqi"]
    assert main(["bench", "--synthetic", "2", *grid, "--csv", str(tmp_path / "memory.csv")]) == 0
    assert list(scratch.iterdir()) == []
    corpus = tmp_path / "corpus"
    write_corpus(corpus, 2, size=24)
    assert main(["bench", str(corpus), *grid, "--csv", str(tmp_path / "directory.csv")]) == 0

    def without_timings(path):
        return [line.split(",")[:-2] for line in path.read_text().splitlines()]

    assert without_timings(tmp_path / "memory.csv") == without_timings(tmp_path / "directory.csv")


def test_cli_bench_reports_unscored_tmqi_cells(tmp_path, capsys):
    from hdr2l.cli import main

    corpus = str(tmp_path / "corpus")
    args = ["bench", corpus, "--synthetic", "1", "--size", "24", "--tmo", "default"]
    assert main(args) == 0
    assert "tmqi: 6 of 6 cells unscored (side < 176 px)" in capsys.readouterr().out
    assert main(args + ["--no-tmqi"]) == 0
    assert "unscored" not in capsys.readouterr().out


def test_cli_bench_exit_code_on_lossless_failure(tmp_path, monkeypatch, capsys):
    """Every cell fails, so the boxplot has no arm to draw: the run still exits
    2 and names the failures, and the CSV records each cell's lossless_ok."""
    from hdr2l import cli

    real_decode = container.decode

    def corrupt_decode(data):
        image = real_decode(data)
        samples = image.samples.copy()
        samples[0, 0, 0] ^= 1
        return type(image)(samples)

    monkeypatch.setattr(bench.container, "decode", corrupt_decode)
    corpus = tmp_path / "corpus"
    csv_path, svg_path = tmp_path / "records.csv", tmp_path / "boxes.svg"
    for outputs in ([], ["--csv", str(csv_path), "--svg", str(svg_path)]):
        code = cli.main(["bench", str(corpus), "--synthetic", "1", "--size", "24",
                         "--tmo", "default", "--no-tmqi", *outputs])
        assert code == 2
        assert "lossless round trip failed for" in capsys.readouterr().err
    header, *rows = csv_path.read_text().splitlines()
    column = header.split(",").index("lossless_ok")
    assert [row.split(",")[column] for row in rows] == ["false"] * 6
    assert not svg_path.exists()


def test_cli_bench_synthetic_zero_is_refused(tmp_path, capsys):
    """``--synthetic 0`` asks for an empty corpus, not for the directory."""
    from hdr2l.cli import main

    corpus, absent = tmp_path / "corpus", tmp_path / "absent"
    write_corpus(corpus, 1, size=24)
    for args in (["--synthetic", "0"], [str(corpus), "--synthetic", "0"], [str(absent), "--synthetic", "0"]):
        assert main(["bench", *args, "--size", "24", "--tmo", "default", "--no-tmqi"]) == 1
        captured = capsys.readouterr()
        assert "corpus needs at least one image" in captured.err
        assert "records over" not in captured.out
    assert not absent.exists()
