"""Black-box web-API façade for the simulated services.

The measurement methodology is black-box: agents interact with services
only through API requests, exactly as the paper's agents used the
Blogger, Google+ and Facebook Graph APIs.  This subpackage provides the
request/response types (:mod:`repro.webapi.http`), bearer-token
accounts (:mod:`repro.webapi.auth`), server-side sliding-window rate
limiting (:mod:`repro.webapi.ratelimit`), the endpoint pipeline that
ties them together over the simulated network
(:mod:`repro.webapi.endpoint`), and the client agents call
(:mod:`repro.webapi.client`).
"""

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".router": ("Router", "RouteSpec"),
    ".pagination": ("Page", "paginate", "DEFAULT_PAGE_SIZE"),
    ".http": ("ApiRequest", "ApiResponse", "ok", "error_response"),
    ".auth": ("Account", "AccountRegistry"),
    ".client": ("ApiClient",),
    ".endpoint": ("ServiceEndpoint", "EndpointStats"),
    ".ratelimit": ("RateLimit", "SlidingWindowRateLimiter"),
})
