import numpy as np
import pytest

from sphertrans.ensembles import random_tuple
from sphertrans.tupledoc import (
    TupleDocumentError,
    from_document_dict,
    read_tuple,
    to_document_dict,
    write_tuple,
)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        t = random_tuple(3, 4, 99)
        path = tmp_path / "t.json"
        write_tuple(path, t, name="roundtrip")
        doc = read_tuple(path)
        assert doc.name == "roundtrip"
        assert doc.tuple.d == 3 and doc.tuple.n == 4
        for a, b in zip(doc.tuple, t):
            assert np.array_equal(a, b)

    def test_double_roundtrip_stable(self, tmp_path):
        t = random_tuple(2, 3, 5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_tuple(p1, t)
        write_tuple(p2, read_tuple(p1).tuple)
        assert p1.read_text() == p2.read_text()


class TestValidation:
    def test_missing_field(self):
        with pytest.raises(TupleDocumentError, match="matrices"):
            from_document_dict({"d": 1, "n": 1})

    def test_wrong_counts(self):
        doc = to_document_dict(random_tuple(2, 2, 0))
        doc["matrices"].pop()
        with pytest.raises(TupleDocumentError, match="exactly d=2"):
            from_document_dict(doc)

    def test_ragged_row(self):
        doc = to_document_dict(random_tuple(1, 2, 0))
        doc["matrices"][0][0].pop()
        with pytest.raises(TupleDocumentError, match="entries"):
            from_document_dict(doc)

    def test_non_finite_entries(self):
        # JSON integers beyond float range, such as 10**400, are not finite
        # either; math.isfinite would raise OverflowError on them
        doc = to_document_dict(random_tuple(1, 1, 0))
        for entry in ([float("inf"), 0.0], [0.0, float("nan")], [10**400, 0],
                      [0, -10**400]):
            doc["matrices"][0][0][0] = entry
            with pytest.raises(TupleDocumentError, match="finite"):
                from_document_dict(doc)
        doc["matrices"][0][0][0] = [10**300, -10**300]
        assert from_document_dict(doc).tuple[0][0, 0] == complex(1e300, -1e300)

    def test_non_pair_entry(self):
        doc = to_document_dict(random_tuple(1, 1, 0))
        doc["matrices"][0][0][0] = 1.5
        with pytest.raises(TupleDocumentError, match="pair"):
            from_document_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(TupleDocumentError, match="invalid JSON"):
            read_tuple(path)

    def test_bad_dimension_types(self):
        with pytest.raises(TupleDocumentError, match="'d'"):
            from_document_dict({"d": "two", "n": 2, "matrices": []})

    @pytest.mark.parametrize("key", ["d", "n"])
    def test_boolean_dimension_rejected(self, key):
        # a JSON true would otherwise read as the integer 1
        doc = to_document_dict(random_tuple(1, 1, 0))
        doc[key] = True
        with pytest.raises(TupleDocumentError, match=f"'{key}'"):
            from_document_dict(doc)
