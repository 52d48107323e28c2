"""Country code universe and normalization.

The universe is the set of ISO 3166-1 alpha-2 codes as they appear in
bibliographic databases, which record addresses for dependent territories
and micro-states beyond the UN member list, plus Kosovo (XK). Legacy codes
that still occur in older address data are normalized to their successors.
"""

from __future__ import annotations

# Officially assigned ISO 3166-1 alpha-2 codes, plus XK (Kosovo, in wide
# database use despite being user-assigned).
COUNTRY_CODES: frozenset[str] = frozenset("""
AD AE AF AG AI AL AM AO AQ AR AS AT AU AW AX AZ BA BB BD BE
BF BG BH BI BJ BL BM BN BO BQ BR BS BT BV BW BY BZ CA CC CD
CF CG CH CI CK CL CM CN CO CR CU CV CW CX CY CZ DE DJ DK DM
DO DZ EC EE EG EH ER ES ET FI FJ FK FM FO FR GA GB GD GE GF
GG GH GI GL GM GN GP GQ GR GS GT GU GW GY HK HM HN HR HT HU
ID IE IL IM IN IO IQ IR IS IT JE JM JO JP KE KG KH KI KM KN
KP KR KW KY KZ LA LB LC LI LK LR LS LT LU LV LY MA MC MD ME
MF MG MH MK ML MM MN MO MP MQ MR MS MT MU MV MW MX MY MZ NA
NC NE NF NG NI NL NO NP NR NU NZ OM PA PE PF PG PH PK PL PM
PN PR PS PT PW PY QA RE RO RS RU RW SA SB SC SD SE SG SH SI
SJ SK SL SM SN SO SR SS ST SV SX SY SZ TC TD TF TG TH TJ TK
TL TM TN TO TR TT TV TW TZ UA UG UM US UY UZ VA VC VE VG VI
VN VU WF WS XK YE YT ZA ZM ZW
""".split())

# Legacy or non-ISO codes seen in address data, mapped to their successor
# (or to the common ISO spelling).
ALIASES: dict[str, str] = {
    "UK": "GB",  # common non-ISO usage
    "EL": "GR",  # Eurostat usage
    "FX": "FR",  # metropolitan France
    "SU": "RU",  # Soviet Union
    "YU": "RS",  # Yugoslavia
    "CS": "RS",  # Serbia and Montenegro
    "DD": "DE",  # German Democratic Republic
    "ZR": "CD",  # Zaire
    "BU": "MM",  # Burma
    "TP": "TL",  # East Timor (pre-2002 code)
    "AN": "CW",  # Netherlands Antilles
}


def normalize_country(code: str) -> str:
    """Uppercase, strip, and resolve legacy aliases. Does not validate."""
    c = code.strip().upper()
    return ALIASES.get(c, c)


def sorted_codes() -> list[str]:
    """The full universe in lexicographic order."""
    return sorted(COUNTRY_CODES)
