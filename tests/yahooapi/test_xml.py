"""Unit and property tests for PlaceFinder XML rendering/parsing."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MalformedResponseError
from repro.geo.point import GeoPoint
from repro.geo.region import AdminPath
from repro.yahooapi.xml import parse_response, render_error, render_success

names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
paths = st.builds(AdminPath, names, names, names, names)
points = st.builds(
    GeoPoint,
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
)


class TestSuccess:
    def test_render_contains_fig5_elements(self):
        path = AdminPath("South Korea", "Seoul", "Yongsan-gu", "Itaewon-dong")
        doc = render_success(GeoPoint(37.5326, 126.9904), path, quality=87)
        for tag in ("<ResultSet", "<Result>", "<location>", "<country>",
                    "<state>", "<county>", "<town>"):
            assert tag in doc

    def test_parse_success(self):
        path = AdminPath("South Korea", "Seoul", "Yongsan-gu", "Itaewon-dong")
        response = parse_response(render_success(GeoPoint(37.5326, 126.9904), path, 87))
        assert response.ok
        assert response.path == path
        assert response.quality == 87
        assert response.point.lat == pytest.approx(37.5326, abs=1e-5)

    @given(points, paths, st.integers(min_value=0, max_value=100))
    @settings(max_examples=60)
    def test_roundtrip(self, point, path, quality):
        response = parse_response(render_success(point, path, quality))
        assert response.ok
        assert response.path == path
        assert response.quality == quality
        assert response.point.lat == pytest.approx(point.lat, abs=1e-5)
        assert response.point.lon == pytest.approx(point.lon, abs=1e-5)


class TestError:
    def test_render_parse_error(self):
        response = parse_response(render_error(100, "No result"))
        assert not response.ok
        assert response.error_code == 100
        assert response.found == 0
        assert response.path is None


class TestMalformed:
    @pytest.mark.parametrize(
        "document",
        [
            "not xml at all",
            "<Wrong/>",
            "<ResultSet><Error>0</Error></ResultSet>",  # missing Found
            "<ResultSet><Error>x</Error><ErrorMessage>m</ErrorMessage>"
            "<Found>1</Found></ResultSet>",  # non-numeric error
            "<ResultSet><Error>0</Error><ErrorMessage>m</ErrorMessage>"
            "<Found>1</Found></ResultSet>",  # found but no Result
        ],
    )
    def test_rejected(self, document):
        with pytest.raises(MalformedResponseError):
            parse_response(document)

    def test_result_without_location(self):
        document = (
            "<ResultSet><Error>0</Error><ErrorMessage>m</ErrorMessage>"
            "<Found>1</Found><Result><quality>87</quality>"
            "<latitude>1</latitude><longitude>2</longitude></Result></ResultSet>"
        )
        with pytest.raises(MalformedResponseError):
            parse_response(document)


def _tree_success(point, path, quality):
    """The ElementTree rendering ``render_success`` must reproduce."""
    root = ET.Element("ResultSet", version="1.0")
    ET.SubElement(root, "Error").text = "0"
    ET.SubElement(root, "ErrorMessage").text = "No error"
    ET.SubElement(root, "Found").text = "1"
    result = ET.SubElement(root, "Result")
    ET.SubElement(result, "quality").text = str(quality)
    ET.SubElement(result, "latitude").text = f"{point.lat:.6f}"
    ET.SubElement(result, "longitude").text = f"{point.lon:.6f}"
    location = ET.SubElement(result, "location")
    ET.SubElement(location, "country").text = path.country
    ET.SubElement(location, "state").text = path.state
    ET.SubElement(location, "county").text = path.county
    ET.SubElement(location, "town").text = path.town
    return ET.tostring(root, encoding="unicode")


def _tree_error(error_code, message):
    """The ElementTree rendering ``render_error`` must reproduce."""
    root = ET.Element("ResultSet", version="1.0")
    ET.SubElement(root, "Error").text = str(error_code)
    ET.SubElement(root, "ErrorMessage").text = message
    ET.SubElement(root, "Found").text = "0"
    return ET.tostring(root, encoding="unicode")


FIELD_TEXTS = ["", "Seoul", "a & b", "<town>", "x > y", "AT&T <&> co", "\r", "line\r\nbreak",
               "서울특별시", "종로구 & 중구", "tab\there", "\"quoted\" 'single'"]


class TestRenderingPinnedToElementTree:
    @pytest.mark.parametrize("text", FIELD_TEXTS)
    def test_success_every_field(self, text):
        point = GeoPoint(-33.123456789, 151.2)
        for path in (
            AdminPath(text, "Seoul", "Jongno-gu", "Sajik-dong"),
            AdminPath("South Korea", text, "Jongno-gu", ""),
            AdminPath("South Korea", "Seoul", text, "Sajik-dong"),
            AdminPath("South Korea", "Seoul", "Jongno-gu", text),
            AdminPath(text, text, text, text),
        ):
            for quality in (0, 87, 100):
                assert render_success(point, path, quality) == _tree_success(
                    point, path, quality
                )

    def test_empty_field_self_closes(self):
        doc = render_success(GeoPoint(37.5, 127.0), AdminPath("South Korea", "Seoul", "Jung-gu", ""), 87)
        assert "<town />" in doc

    @pytest.mark.parametrize("text", FIELD_TEXTS)
    def test_error(self, text):
        for code in (1, 100):
            assert render_error(code, text) == _tree_error(code, text)

    @given(points, st.builds(AdminPath, st.text(), st.text(), st.text(), st.text()),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=80)
    def test_success_property(self, point, path, quality):
        assert render_success(point, path, quality) == _tree_success(point, path, quality)
