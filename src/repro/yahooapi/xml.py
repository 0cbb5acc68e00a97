"""Yahoo PlaceFinder-style XML rendering and parsing.

The paper reverse-geocoded every GPS pair through the Yahoo API (§III-B,
Fig. 5): "The result set in XML format has four elements under the
<location> element; the four elements are <country>, <state>, <county>,
and <town>."  This module renders and parses that response shape so the
collection pipeline exercises the same serialise -> transfer -> parse path
the original study did.

The document layout mirrors Fig. 5:

.. code-block:: xml

    <ResultSet version="1.0">
      <Error>0</Error>
      <ErrorMessage>No error</ErrorMessage>
      <Found>1</Found>
      <Result>
        <quality>87</quality>
        <latitude>37.5326</latitude>
        <longitude>126.9904</longitude>
        <location>
          <country>South Korea</country>
          <state>Seoul</state>
          <county>Yongsan-gu</county>
          <town>Itaewon-dong</town>
        </location>
      </Result>
    </ResultSet>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass

from repro.errors import MalformedResponseError
from repro.geo.point import GeoPoint
from repro.geo.region import AdminPath


@dataclass(frozen=True, slots=True)
class PlaceFinderResponse:
    """Parsed form of a PlaceFinder XML response.

    Attributes:
        error_code: 0 on success; non-zero codes mirror the real API
            (e.g. 100 for "no location found").
        error_message: Human-readable error string.
        found: Number of results (0 or 1 in this emulation).
        quality: Match quality 0-100 (87 = coordinate match).
        point: Echo of the query coordinates, when found.
        path: The administrative path, when found.
    """

    error_code: int
    error_message: str
    found: int
    quality: int = 0
    point: GeoPoint | None = None
    path: AdminPath | None = None

    @property
    def ok(self) -> bool:
        """True for a successful lookup with a result."""
        return self.error_code == 0 and self.found > 0


def _element(tag: str, text: str) -> str:
    """One leaf element, serialised as ElementTree would: ``&``, ``<`` and
    ``>`` escaped, and an empty text as a self-closed ``<tag />``.

    The escape is spelled out rather than taken from
    ``xml.sax.saxutils``, which would import ``urllib.request`` (tens of
    milliseconds) into every process that loads the CLI.
    """
    if not text:
        return f"<{tag} />"
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<{tag}>{text}</{tag}>"


def render_success(point: GeoPoint, path: AdminPath, quality: int) -> str:
    """Render a successful single-result response document.

    The string is assembled directly rather than through an ElementTree:
    the layout is fixed, and the bytes are those ``ET.tostring`` gives
    for the same tree (``tests/yahooapi/test_xml.py`` pins them).
    """
    return (
        '<ResultSet version="1.0"><Error>0</Error>'
        "<ErrorMessage>No error</ErrorMessage><Found>1</Found><Result>"
        f"<quality>{quality}</quality>"
        f"<latitude>{point.lat:.6f}</latitude>"
        f"<longitude>{point.lon:.6f}</longitude>"
        "<location>"
        + _element("country", path.country)
        + _element("state", path.state)
        + _element("county", path.county)
        + _element("town", path.town)
        + "</location></Result></ResultSet>"
    )


def render_error(error_code: int, message: str) -> str:
    """Render a no-result / error response document."""
    return (
        f'<ResultSet version="1.0"><Error>{error_code}</Error>'
        + _element("ErrorMessage", message)
        + "<Found>0</Found></ResultSet>"
    )


def _required_text(parent: ET.Element, tag: str) -> str:
    node = parent.find(tag)
    if node is None:
        raise MalformedResponseError(f"missing <{tag}> element")
    return node.text or ""


def parse_response(document: str) -> PlaceFinderResponse:
    """Parse a PlaceFinder XML document.

    Raises:
        MalformedResponseError: if the document is not valid XML or is
            missing required elements.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise MalformedResponseError(f"invalid XML: {exc}") from exc
    if root.tag != "ResultSet":
        raise MalformedResponseError(f"unexpected root element <{root.tag}>")

    try:
        error_code = int(_required_text(root, "Error"))
        found = int(_required_text(root, "Found"))
    except ValueError as exc:
        raise MalformedResponseError("non-numeric Error/Found field") from exc
    error_message = _required_text(root, "ErrorMessage")

    if error_code != 0 or found == 0:
        return PlaceFinderResponse(
            error_code=error_code, error_message=error_message, found=found
        )

    result = root.find("Result")
    if result is None:
        raise MalformedResponseError("Found>0 but no <Result> element")
    location = result.find("location")
    if location is None:
        raise MalformedResponseError("<Result> missing <location> element")
    try:
        quality = int(_required_text(result, "quality"))
        lat = float(_required_text(result, "latitude"))
        lon = float(_required_text(result, "longitude"))
    except ValueError as exc:
        raise MalformedResponseError("non-numeric Result field") from exc

    path = AdminPath(
        country=_required_text(location, "country"),
        state=_required_text(location, "state"),
        county=_required_text(location, "county"),
        town=_required_text(location, "town"),
    )
    return PlaceFinderResponse(
        error_code=0,
        error_message=error_message,
        found=found,
        quality=quality,
        point=GeoPoint(lat, lon),
        path=path,
    )
