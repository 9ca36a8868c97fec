import math
from dataclasses import astuple

import numpy as np
import pytest

from memsosc import Resonator, run_design
from memsosc.iodoc import (
    DocumentError,
    FIXTURE_DIR_ENV,
    RESPONSE_CSV_HEADER,
    atomic_write_text,
    designspec_from_document,
    load_document,
    network_from_document,
    parse_document,
    report_document,
    resolve_network,
    resolve_resonator,
    resonator_from_document,
    response_csv,
)
from memsosc.bvd import sweep
from memsosc.fixtures import get_resonator


RFT_DOC = """\
# 30 GHz resonator
rm = 332
lm = 17.59u
cm = 0.00160006f
c0 = 16f
label = rft
"""


class TestDocuments:
    def test_parse_key_values(self):
        doc = parse_document(RFT_DOC)
        assert doc["rm"] == "332"
        assert doc["label"] == "rft"

    def test_comments_stripped(self):
        doc = parse_document("a = 1 # trailing\n# full line\nb = 2\n")
        assert doc == {"a": "1", "b": "2"}

    def test_rejects_bad_line(self):
        with pytest.raises(DocumentError):
            parse_document("just words\n")

    def test_resonator_from_document(self):
        res = resonator_from_document(parse_document(RFT_DOC))
        assert res.r_m == 332.0
        assert res.c_0 == pytest.approx(16e-15)
        assert res.label == "rft"

    def test_missing_key(self):
        with pytest.raises(DocumentError):
            resonator_from_document({"rm": "332"})

    def test_out_of_range_value(self):
        doc = parse_document(RFT_DOC.replace("rm = 332", "rm = 1e999"))
        with pytest.raises(DocumentError, match="'rm'"):
            resonator_from_document(doc)

    def test_network_from_document(self):
        doc = parse_document("l0 = 250p\nq_l0 = 8\nf_ref = 30g\n"
                             "c_fix = 92.58f\nbank_unit = 1f\nbank_size = 8\n"
                             "bank_code = 4\n")
        comp = network_from_document(doc)
        assert comp.l_0 == pytest.approx(250e-12)
        assert comp.bank_size == 8

    def test_network_topology(self):
        base = "l0 = 250p\nq_l0 = 8\nf_ref = 30g\n"
        assert network_from_document(parse_document(base + "topology = shunt\n"))
        with pytest.raises(DocumentError, match="topology"):
            network_from_document(parse_document(base + "topology = series\n"))

    @pytest.mark.parametrize("key", ["bank_size", "bank_code"])
    def test_network_rejects_fractional_bank(self, key):
        values = {"bank_size": "8", "bank_code": "4", key: "8.5"}
        doc = parse_document("l0 = 250p\nq_l0 = 8\nf_ref = 30g\nbank_unit = 1f\n"
                             + "".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(DocumentError, match=key):
            network_from_document(doc)

    def test_integral_bank_in_engineering_notation(self):
        doc = parse_document("l0 = 250p\nq_l0 = 8\nf_ref = 30g\nbank_unit = 1f\n"
                             "bank_size = 2k\nbank_code = 1e3\n")
        comp = network_from_document(doc)
        assert (comp.bank_size, comp.bank_code) == (2000, 1000)
        assert type(comp.bank_size) is int


class TestResolvers:
    def test_builtin_name(self):
        assert resolve_resonator("rft30g").r_m == 332.0

    def test_path(self, tmp_path):
        p = tmp_path / "dev.txt"
        p.write_text(RFT_DOC)
        assert resolve_resonator(str(p)).r_m == 332.0

    def test_fixture_dir_env(self, tmp_path, monkeypatch):
        (tmp_path / "mydev.dev").write_text(RFT_DOC)
        monkeypatch.setenv(FIXTURE_DIR_ENV, str(tmp_path))
        assert resolve_resonator("mydev").r_m == 332.0

    def test_unknown_raises(self):
        with pytest.raises(DocumentError) as info:
            resolve_resonator("no_such_device")
        assert str(info.value) == (
            "unknown resonator 'no_such_device': not a built-in fixture "
            "(fbar2g4, quartz45m, rft30g, saw400m) and no such file")
        with pytest.raises(DocumentError) as info:
            resolve_network("no_such_network")
        assert str(info.value) == (
            "unknown network 'no_such_network': not a built-in fixture "
            "(l0_250p_q10, l0_250p_q8) and no such file")

    def test_network_fixture_dir_env(self, tmp_path, monkeypatch):
        # the name alone, then with the .net suffix; a .dev file is no network
        (tmp_path / "mynet.net").write_text("l0 = 250p\nq_l0 = 8\nf_ref = 30g\n")
        (tmp_path / "mydev.dev").write_text(RFT_DOC)
        monkeypatch.setenv(FIXTURE_DIR_ENV, str(tmp_path))
        assert resolve_network("mynet").l_0 == 250e-12
        assert resolve_network("mynet.net").q_l0 == 8.0
        with pytest.raises(DocumentError, match="unknown network 'mydev'"):
            resolve_network("mydev")
        with pytest.raises(DocumentError, match="unknown resonator 'mynet'"):
            resolve_resonator("mynet")


class TestEmission:
    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.csv"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [target]  # no temp litter

    def test_response_csv(self, rft):
        resp = sweep(rft, 29e9, 31e9, 3)
        lines = response_csv(resp).strip().split("\n")
        assert lines[0] == RESPONSE_CSV_HEADER
        assert len(lines) == 4
        f, re, im, mag, ph = (float(x) for x in lines[1].split(","))
        assert f == 29e9
        assert mag == pytest.approx(math.hypot(re, im))

    def test_report_document_reparses(self, rft):
        from memsosc import DesignSpec

        spec = DesignSpec(resonator=rft, target_f0=30e9, v_osc_target=0.3,
                          parasitic_c=86.58e-15, q_l0_available=8.0,
                          bank_unit=1e-15, bank_size=8, c_fix=10e-15)
        report = run_design(spec)
        doc = parse_document(report_document(report))
        assert float(doc["q_loaded"]) == report.q_loaded
        assert float(doc["pn_dbchz"]) == report.predicted_pn
        assert int(doc["bank_code"]) == report.bank_code

    def test_report_document_of_numpy_numbers(self, rft):
        # numpy scalars become Python numbers where they enter the spec and
        # the resonator, so the report has the bits and the reprs of the
        # Python-number twin's
        from memsosc import DesignSpec

        spec = DesignSpec(resonator=rft, target_f0=30e9, v_osc_target=0.3,
                          parasitic_c=86.58e-15, q_l0_available=8.0,
                          bank_unit=1e-15, bank_size=8, c_fix=10e-15)
        numpy_res = Resonator(*map(np.float64, (rft.r_m, rft.l_m, rft.c_m, rft.c_0)))
        numpy_spec = DesignSpec(numpy_res, *(
            np.int64(v) if type(v) is int else np.float64(v) for v in astuple(spec)[1:]))
        report, numpy_report = run_design(spec), run_design(numpy_spec)
        assert report_document(numpy_report) == report_document(report)
        assert list(map(type, astuple(numpy_report))) == list(map(type, astuple(report)))


class TestDesignSpecDocument:
    def test_builtin_reference(self):
        doc = parse_document("resonator = rft30g\ntarget_f0 = 30g\n"
                             "v_osc = 300m\nparasitic_c = 86.58f\n"
                             "q_l0 = 8\nbank_unit = 1f\nbank_size = 8\n")
        spec = designspec_from_document(doc)
        assert spec.resonator.r_m == 332.0
        assert spec.target_f0 == pytest.approx(30e9)
        assert spec.c_fix == pytest.approx(10e-15)  # default

    def test_inline_resonator(self):
        doc = parse_document(RFT_DOC + "target_f0 = 30g\nv_osc = 300m\n"
                             "q_l0 = 8\n")
        spec = designspec_from_document(doc)
        assert spec.resonator.label == "rft"
        assert spec.parasitic_c == 0.0

    def test_rejects_fractional_bank(self):
        doc = parse_document("resonator = rft30g\ntarget_f0 = 30g\nv_osc = 300m\n"
                             "q_l0 = 8\nbank_unit = 1f\nbank_size = 8.5\n")
        with pytest.raises(DocumentError, match="bank_size"):
            designspec_from_document(doc)
